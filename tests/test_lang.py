"""Language detection goldens (T1) — the scale analogue of the reference's
per-language fixture expectations (spec/rika/parser_spec.rb:252-259) plus
the undetermined path (lang_cant_be_determined.txt, "hej")."""

from __future__ import annotations

from rika_ray.corpus import FIXTURE_TEXT, WORD_POOL, _paragraph
from rika_ray.stages.lang import build_profiles, detect_language

import random


def test_fixture_texts_detected():
    profiles = build_profiles()
    for lang, text in FIXTURE_TEXT.items():
        assert detect_language(text, profiles) == lang, lang


def test_generated_paragraphs_detected():
    profiles = build_profiles()
    rng = random.Random(7)
    for lang in WORD_POOL:
        for _ in range(5):
            text = _paragraph(rng, WORD_POOL[lang], 5)
            assert detect_language(text, profiles) == lang, (lang, text[:60])


def test_undetermined_cases():
    profiles = build_profiles()
    assert detect_language("hej", profiles) is None
    assert detect_language("hello", profiles) is None
    assert detect_language("", profiles) is None
    assert detect_language(None, profiles) is None
    assert detect_language("   \n  ", profiles) is None


def test_ten_language_breadth_on_novel_text():
    """Out-of-sample sentences (not in any seed) for every profiled
    language, including the five added beyond the reference fixtures."""
    profiles = build_profiles()
    novel = {
        "pt": "O comboio chegou atrasado à estação e os passageiros "
              "esperavam com os seus bilhetes na mão, enquanto a chuva "
              "caía sobre a plataforma de madeira.",
        "it": "Il treno è arrivato in ritardo alla stazione e i "
              "passeggeri aspettavano con i loro biglietti in mano, "
              "mentre la pioggia cadeva sulla piattaforma di legno.",
        "nl": "De trein kwam te laat aan op het station en de reizigers "
              "wachtten met hun kaartjes in de hand, terwijl de regen op "
              "het houten perron viel.",
        "pl": "Pociąg przyjechał na stację z opóźnieniem, a pasażerowie "
              "czekali z biletami w rękach, podczas gdy deszcz padał na "
              "drewniany peron.",
        "sv": "Tåget kom försenat till stationen och resenärerna väntade "
              "med sina biljetter i handen, medan regnet föll över den "
              "gamla träperrongen.",
        "en": "The train arrived late at the station and the passengers "
              "waited with their tickets in hand while the rain fell.",
        "ru": "Поезд прибыл на станцию с опозданием, и пассажиры ждали "
              "с билетами в руках, пока дождь падал на платформу.",
        "tr": "Tren istasyona geç geldi ve yolcular biletleri ellerinde "
              "beklerken yağmur ahşap platformun üzerine yağıyordu.",
        "cs": "Vlak přijel na nádraží pozdě a cestující čekali s "
              "jízdenkami v rukou, zatímco déšť padal na dřevěné "
              "nástupiště.",
        "da": "Toget ankom for sent til stationen, og passagererne "
              "ventede med deres billetter i hånden, mens regnen faldt "
              "over den gamle perron.",
        "fi": "Juna saapui asemalle myöhässä ja matkustajat odottivat "
              "liput käsissään, kun sade putosi puiselle laiturille.",
        "hu": "A vonat késve érkezett az állomásra, és az utasok a "
              "jegyeikkel a kezükben vártak, miközben az eső a fa "
              "peronra hullott.",
        "ro": "Trenul a ajuns târziu în gară și călătorii așteptau cu "
              "biletele în mână, în timp ce ploaia cădea pe peronul de "
              "lemn.",
        "uk": "Потяг прибув на станцію із запізненням, і пасажири чекали "
              "з квитками в руках, поки дощ падав на дерев'яну "
              "платформу.",
        "vi": "Chuyến tàu đến ga muộn và hành khách chờ đợi với vé trên "
              "tay trong khi mưa rơi xuống sân ga bằng gỗ.",
        "id": "Kereta tiba terlambat di stasiun dan para penumpang "
              "menunggu dengan tiket di tangan sementara hujan turun di "
              "peron kayu.",
        "bg": "Влакът пристигна на гарата със закъснение и пътниците "
              "чакаха с билети в ръце, докато дъждът валеше.",
        "hr": "Vlak je stigao na kolodvor kasno i putnici su čekali s "
              "kartama u rukama dok je kiša padala na peron.",
        "et": "Rong saabus jaama hilja ja reisijad ootasid piletitega "
              "käes, samal ajal kui vihm langes puidust perroonile.",
        "lt": "Traukinys į stotį atvyko vėluodamas, o keleiviai laukė su "
              "bilietais rankose, kol lietus krito ant medinio perono.",
        "lv": "Vilciens stacijā ieradās vēlu, un pasažieri gaidīja ar "
              "biļetēm rokās, kamēr lietus lija uz koka perona.",
    }
    for expect, text in novel.items():
        assert detect_language(text, profiles) == expect, expect


def test_script_shortcut_languages():
    """ja/zh/ko/ar are decided by Unicode-script dominance (kana vs hangul
    vs han split), mirroring the block-normalization step real detectors
    apply before n-grams. Mixed ASCII markup must not break it."""
    profiles = build_profiles()
    cases = {
        "ja": "これは日本語のテキストです。言語検出器はこれを日本語として検出するべきです。",
        "zh": "这是中文文本。语言检测器应该检测出中文。城市的早晨从火车的声音开始。",
        "ko": "이것은 한국어 텍스트입니다. 언어 감지기는 이것을 한국어로 감지해야 합니다.",
        "ar": "هذا نص باللغة العربية ويجب أن يتعرف عليه كاشف اللغة بشكل صحيح تماما.",
        "el": "Αυτό είναι ελληνικό κείμενο και ο ανιχνευτής γλώσσας πρέπει να το αναγνωρίσει σωστά.",
        "he": "זהו טקסט בעברית וגלאי השפה צריך לזהות אותו נכון לחלוטין.",
        "th": "นี่คือข้อความภาษาไทยและตัวตรวจจับภาษาควรตรวจพบอย่างถูกต้อง",
        "hi": "यह हिंदी में लिखा गया पाठ है और भाषा संसूचक को इसे सही पहचानना चाहिए।",
    }
    for expect, text in cases.items():
        assert detect_language(text, profiles) == expect, expect
        # web-page flavored: ASCII markup around the payload
        wrapped = "<html> id=42 " + text + " http://example.com </html>"
        assert detect_language(wrapped, profiles) == expect, expect
    # kanji-heavy Japanese with a little kana still splits from Chinese
    ja_kanji = "東京都内の鉄道網は世界有数の規模を誇り、毎日数百万人が利用しています。"
    assert detect_language(ja_kanji, profiles) == "ja"


def test_out_of_model_script_is_undetermined():
    """Certainty floor: long in-length but out-of-model text must yield
    None, never a forced bin — reference analogue: Optimaize's certainty
    threshold (/root/reference/lib/rika.rb:58-61). The margin-based floor
    is vocabulary-size invariant, so adding languages cannot re-bin these.
    (Armenian/Georgian/Tamil moved out of this list when their script
    shortcuts landed; out-of-model is now exercised by scripts the engine
    genuinely doesn't cover plus Latin gibberish.)"""
    profiles = build_profiles()
    for text in (
        # Cherokee syllabary (U+13A0) — no shortcut, no trigram model
        "ᏣᎳᎩ ᎦᏬᏂᎯᏍᏗ ᎠᎴ ᏗᎪᏪᎵ ᎠᏂᏃᎮᎵᏙᎯ ᎤᏂᏣᏘ ᎠᏂᏴᏫᏯ ᎠᏁᎲᎢ",
        # Canadian Aboriginal syllabics (U+1400)
        "ᓄᓇᕗᑦ ᐃᓄᒃᑎᑐᑦ ᐅᖃᐅᓯᖅ ᐊᒻᒪᓗ ᑎᑎᕋᐅᓯᖅ ᐊᑐᖅᑕᐅᕙᒃᑐᖅ ᓄᓇᓕᖕᓂ",
        "xzq wvv kjq plm zzx qqw vnb mmx zoq trw ghk bnm",
    ):
        assert detect_language(text, profiles) is None, text[:20]


def test_single_script_shortcut_breadth():
    """T1 breadth: single-dominant-language scripts decided by block
    histogram (Indic family, Sinhala, Lao, Myanmar, Georgian, Armenian,
    Ethiopic, Khmer) — novel sentences, not training data."""
    from rika_ray.stages.lang import _script_shortcuts

    cases = {
        "bn": "সকালে স্টেশনটি মানুষ এবং শব্দে ভরে যায়।",
        "ta": "காலையில் நிலையம் மக்களாலும் சத்தத்தாலும் நிறைகிறது.",
        "te": "ఉదయం స్టేషన్ ప్రజలతో మరియు శబ్దంతో నిండిపోతుంది.",
        "kn": "ಬೆಳಿಗ್ಗೆ ನಿಲ್ದಾಣವು ಜನರಿಂದ ಮತ್ತು ಶಬ್ದದಿಂದ ತುಂಬುತ್ತದೆ.",
        "ml": "രാവിലെ സ്റ്റേഷൻ ആളുകളും ശബ്ദവും കൊണ്ട് നിറയുന്നു.",
        "si": "උදෑසන දුම්රිය ස්ථානය මිනිසුන්ගෙන් හා ශබ්දයෙන් පිරී යයි.",
        "pa": "ਸਵੇਰੇ ਸਟੇਸ਼ਨ ਲੋਕਾਂ ਅਤੇ ਰੌਲੇ ਨਾਲ ਭਰ ਜਾਂਦਾ ਹੈ।",
        "gu": "સવારે સ્ટેશન લોકો અને અવાજથી ભરાઈ જાય છે.",
        "or": "ସକାଳେ ଷ୍ଟେସନ ଲୋକ ଏବଂ ଶବ୍ଦରେ ଭରିଯାଏ।",
        "lo": "ຕອນເຊົ້າສະຖານີເຕັມໄປດ້ວຍຜູ້ຄົນແລະສຽງດັງ.",
        "my": "မနက်ခင်းတွင် ဘူတာရုံသည် လူများနှင့် ဆူညံသံများဖြင့် ပြည့်နေသည်။",
        "ka": "დილით სადგური ივსება ხალხით და ხმაურით.",
        "hy": "Առավոտյան կայարանը լցվում է մարդկանցով եւ աղմուկով։",
        "am": "በጠዋት ጣቢያው በሰዎች እና በጩኸት ይሞላል።",
        "km": "នៅពេលព្រឹក ស្ថានីយ៍ពេញទៅដោយមនុស្ស និងសំឡេង។",
        # Cyrillic: Serbian via its unique letters; ru/uk stay trigram
        "sr": "Воз је стигао на станицу касно и путници су чекали са картама у рукама док је киша падала.",
        # Perso-Arabic marker-letter refinement
        "fa": "صبح ایستگاه پر از مردم و سر و صدا می‌شود. مردم با نان راه می‌روند.",
        "ur": "صبح کے وقت اسٹیشن لوگوں اور شور سے بھر جاتا ہے۔ لوگ روٹی لے کر چلتے ہیں۔",
        "ar": "في الصباح تمتلئ المحطة بالناس والضجيج. يمشي الناس مع الخبز والصحف.",
        # the pre-existing shortcut languages must be unaffected
        "th": "สถานีรถไฟเต็มไปด้วยผู้คนในตอนเช้า",
        "hi": "सुबह स्टेशन लोगों और शोर से भर जाता है।",
        "el": "Το πρωί ο σταθμός γεμίζει με κόσμο και θόρυβο.",
        "he": "בבוקר התחנה מתמלאת באנשים וברעש.",
    }
    assert _script_shortcuts(list(cases.values())) == list(cases)
    for want, text in cases.items():
        assert _script_shortcuts([text]) == [want], want
    # mixed/Latin text never shortcuts
    assert _script_shortcuts(["plain english text with no other script"]) == [None]


def test_batch_stage_reads_head_only_and_matches_full_text():
    """``LangDetectStage`` converts only each text's head to Python; where
    the head's stripped text is shorter than the detection window (long
    leading whitespace, or a head ending inside whitespace) it falls back
    to the full text, so every result equals detection over full texts."""
    import pyarrow as pa

    from rika_ray.stages.lang import (
        _DETECT_PREFIX,
        _HEAD_CHARS,
        LangDetectStage,
        detect_languages,
    )

    stage = LangDetectStage()
    rng = random.Random(7)
    en = _paragraph(rng, WORD_POOL["en"], 40)
    de = _paragraph(rng, WORD_POOL["de"], 40)
    assert len(en) > _HEAD_CHARS and len(de) > _HEAD_CHARS
    pad = _HEAD_CHARS - 10
    texts = [
        " " * 1000 + en,  # more than the head is whitespace
        "\n\t " * 400 + de,
        " " * 1000 + "hello",  # undetermined: too short once stripped
        # the head ends inside whitespace that the full text keeps
        " " * pad + "ok" + " " * 50 + en,
        " " * (_HEAD_CHARS - _DETECT_PREFIX) + en,  # window ends at the head
        en,
        de[:_HEAD_CHARS],  # exactly one head long
        " " * (_HEAD_CHARS + 5),
        None,
        "",
    ]
    column = pa.chunked_array([texts[:4], texts[4:]], pa.large_string())
    got = stage(pa.table({"content": column}))["language"].to_pylist()
    assert got == detect_languages(texts, stage.profiles)
    assert got[:3] == ["en", "de", None]
