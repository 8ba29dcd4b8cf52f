"""Language detection (stateful stage T1, SURVEY.md §2.3).

The reference memoizes Optimaize n-gram language models once per JVM
(``/root/reference/lib/rika.rb:58-61,104-107``) and detects an ISO 639-1
code from the extracted content of every document
(``lib/rika/parser.rb:30``; per-language goldens
``spec/rika/parser_spec.rb:252-259``; the ``lang_cant_be_determined.txt``
fixture shows the undetermined path).

A Unicode-script shortcut fronts a from-scratch char-trigram naive-Bayes
classifier whose profiles are built from embedded seed text once per
``LangDetectStage`` (the reference's once-per-process memoization).
``detect_languages`` takes a whole batch in array operations over one
code-point view; only the gate and lower-casing run per text, and a
text's result depends only on that text.

Undetermined policy: text shorter than ``MIN_CHARS`` (24) after stripping →
``None`` (covers "hello"/"hej"-style fixtures and empty content).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

MIN_CHARS = 24
_DETECT_PREFIX = 400  # chars of content used for detection (the original
# Cavnar-Trenkle evaluation used ~300-byte samples; 400 chars keeps accuracy
# on the fixture corpus while capping per-doc cost)

# Authored seed paragraphs (distinct from the corpus fixture texts).
_SEED_TEXT = {
    "en": (
        "In the city the mornings begin with the sound of trains and the "
        "slow opening of small shops along the main street. People carry "
        "bread and newspapers, and the air smells of rain that fell during "
        "the night. By noon the squares are full of students and office "
        "workers who eat lunch on the stone steps and talk about the news "
        "of the day. When evening comes the lamps are lit one by one and "
        "the streets grow quiet again, except for the last bus that "
        "crosses the bridge toward the northern hills."
    ),
    "de": (
        "In der Stadt beginnen die Morgen mit dem Geräusch der Züge und "
        "dem langsamen Öffnen der kleinen Läden entlang der Hauptstraße. "
        "Die Menschen tragen Brot und Zeitungen, und die Luft riecht nach "
        "dem Regen, der in der Nacht gefallen ist. Gegen Mittag sind die "
        "Plätze voller Studenten und Büroangestellter, die auf den "
        "Steinstufen zu Mittag essen und über die Nachrichten des Tages "
        "sprechen. Wenn der Abend kommt, werden die Lampen eine nach der "
        "anderen angezündet und die Straßen werden wieder still."
    ),
    "fr": (
        "Dans la ville, les matins commencent avec le bruit des trains et "
        "l'ouverture lente des petites boutiques le long de la rue "
        "principale. Les gens portent du pain et des journaux, et l'air "
        "sent la pluie tombée pendant la nuit. Vers midi, les places sont "
        "pleines d'étudiants et d'employés qui déjeunent sur les marches "
        "de pierre et parlent des nouvelles du jour. Quand le soir vient, "
        "les lampes s'allument une à une et les rues redeviennent "
        "tranquilles."
    ),
    "es": (
        "En la ciudad las mañanas comienzan con el sonido de los trenes y "
        "la lenta apertura de las pequeñas tiendas a lo largo de la calle "
        "principal. La gente lleva pan y periódicos, y el aire huele a la "
        "lluvia que cayó durante la noche. Hacia el mediodía las plazas "
        "están llenas de estudiantes y oficinistas que almuerzan en los "
        "escalones de piedra y hablan de las noticias del día. Cuando "
        "llega la tarde las lámparas se encienden una a una y las calles "
        "vuelven a quedar tranquilas."
    ),
    "ru": (
        "В городе утро начинается со звука поездов и медленного открытия "
        "маленьких магазинов вдоль главной улицы. Люди несут хлеб и "
        "газеты, а воздух пахнет дождём, который шёл ночью. К полудню "
        "площади полны студентов и служащих, которые обедают на каменных "
        "ступенях и говорят о новостях дня. Когда наступает вечер, лампы "
        "зажигаются одна за другой и улицы снова становятся тихими."
    ),
    "pt": (
        "Na cidade as manhãs começam com o som dos comboios e a abertura "
        "lenta das pequenas lojas ao longo da rua principal. As pessoas "
        "carregam pão e jornais, e o ar cheira à chuva que caiu durante a "
        "noite. Ao meio-dia as praças estão cheias de estudantes e "
        "funcionários que almoçam nos degraus de pedra e falam das "
        "notícias do dia. Quando chega a tarde as lâmpadas acendem-se uma "
        "a uma e as ruas voltam a ficar tranquilas."
    ),
    "it": (
        "In città le mattine cominciano con il suono dei treni e la lenta "
        "apertura dei piccoli negozi lungo la via principale. La gente "
        "porta pane e giornali, e l'aria profuma della pioggia caduta "
        "durante la notte. Verso mezzogiorno le piazze sono piene di "
        "studenti e impiegati che pranzano sui gradini di pietra e "
        "parlano delle notizie del giorno. Quando arriva la sera le "
        "lampade si accendono una dopo l'altra e le strade tornano "
        "tranquille."
    ),
    "nl": (
        "In de stad beginnen de ochtenden met het geluid van treinen en "
        "het langzame openen van de kleine winkels langs de hoofdstraat. "
        "Mensen dragen brood en kranten, en de lucht ruikt naar de regen "
        "die in de nacht is gevallen. Tegen de middag zijn de pleinen vol "
        "studenten en kantoormedewerkers die op de stenen treden lunchen "
        "en over het nieuws van de dag praten. Als de avond komt worden "
        "de lampen een voor een aangestoken en worden de straten weer "
        "stil."
    ),
    "pl": (
        "W mieście poranki zaczynają się od dźwięku pociągów i powolnego "
        "otwierania małych sklepów wzdłuż głównej ulicy. Ludzie niosą "
        "chleb i gazety, a powietrze pachnie deszczem, który padał w "
        "nocy. W południe place są pełne studentów i urzędników, którzy "
        "jedzą obiad na kamiennych stopniach i rozmawiają o wiadomościach "
        "dnia. Gdy nadchodzi wieczór, lampy zapalają się jedna po drugiej "
        "i ulice znów stają się ciche."
    ),
    "sv": (
        "I staden börjar morgnarna med ljudet av tåg och det långsamma "
        "öppnandet av de små butikerna längs huvudgatan. Människor bär "
        "bröd och tidningar, och luften doftar av regnet som föll under "
        "natten. Vid middagstid är torgen fulla av studenter och "
        "kontorsarbetare som äter lunch på stentrapporna och pratar om "
        "dagens nyheter. När kvällen kommer tänds lamporna en efter en "
        "och gatorna blir stilla igen."
    ),
    "tr": (
        "Şehirde sabahlar trenlerin sesiyle ve ana cadde boyunca küçük "
        "dükkanların yavaş yavaş açılmasıyla başlar. İnsanlar ekmek ve "
        "gazete taşır, hava gece yağan yağmurun kokusunu taşır. Öğle "
        "vakti meydanlar taş basamaklarda öğle yemeği yiyen ve günün "
        "haberlerini konuşan öğrenciler ve memurlarla dolar. Akşam "
        "olunca lambalar birer birer yanar ve sokaklar yeniden "
        "sessizleşir."
    ),
    "cs": (
        "Ve městě začínají rána zvukem vlaků a pomalým otevíráním malých "
        "obchodů podél hlavní ulice. Lidé nesou chléb a noviny a vzduch "
        "voní deštěm, který padal v noci. V poledne jsou náměstí plná "
        "studentů a úředníků, kteří obědvají na kamenných schodech a "
        "mluví o zprávách dne. Když přijde večer, lampy se rozsvěcují "
        "jedna po druhé a ulice jsou zase tiché."
    ),
    "da": (
        "I byen begynder morgenerne med lyden af tog og den langsomme "
        "åbning af de små butikker langs hovedgaden. Folk bærer brød og "
        "aviser, og luften dufter af regnen, der faldt i løbet af "
        "natten. Ved middagstid er torvene fulde af studerende og "
        "kontorfolk, som spiser frokost på stentrapperne og taler om "
        "dagens nyheder. Når aftenen kommer, tændes lamperne en efter "
        "en, og gaderne bliver stille igen."
    ),
    "fi": (
        "Kaupungissa aamut alkavat junien äänellä ja pienten kauppojen "
        "hitaalla avautumisella pääkadun varrella. Ihmiset kantavat "
        "leipää ja sanomalehtiä, ja ilmassa tuoksuu yöllä satanut sade. "
        "Puoleenpäivään mennessä aukiot ovat täynnä opiskelijoita ja "
        "toimistotyöntekijöitä, jotka syövät lounasta kiviportailla ja "
        "puhuvat päivän uutisista. Illan tullen lamput sytytetään yksi "
        "kerrallaan ja kadut hiljenevät jälleen."
    ),
    "hu": (
        "A városban a reggelek a vonatok hangjával és a kis boltok lassú "
        "nyitásával kezdődnek a főutca mentén. Az emberek kenyeret és "
        "újságot visznek, a levegőben az éjszaka esett eső illata "
        "érződik. Délre a terek megtelnek diákokkal és hivatalnokokkal, "
        "akik a kőlépcsőkön ebédelnek és a nap híreiről beszélgetnek. "
        "Amikor eljön az este, a lámpák egymás után gyulladnak fel, és "
        "az utcák újra elcsendesednek."
    ),
    "ro": (
        "În oraș diminețile încep cu sunetul trenurilor și cu "
        "deschiderea lentă a micilor magazine de-a lungul străzii "
        "principale. Oamenii duc pâine și ziare, iar aerul miroase a "
        "ploaia care a căzut în timpul nopții. La amiază piețele sunt "
        "pline de studenți și funcționari care iau prânzul pe treptele "
        "de piatră și vorbesc despre știrile zilei. Când vine seara, "
        "lămpile se aprind una câte una și străzile devin din nou "
        "liniștite."
    ),
    "uk": (
        "У місті ранки починаються зі звуку поїздів і повільного "
        "відкриття маленьких крамниць уздовж головної вулиці. Люди "
        "несуть хліб і газети, а повітря пахне дощем, що йшов уночі. "
        "До полудня площі повні студентів і службовців, які обідають "
        "на кам'яних сходах і розмовляють про новини дня. Коли настає "
        "вечір, лампи запалюються одна за одною, і вулиці знову "
        "стають тихими."
    ),
    "vi": (
        "Trong thành phố, buổi sáng bắt đầu với tiếng tàu hỏa và "
        "những cửa hàng nhỏ dọc theo con phố chính từ từ mở cửa. Mọi "
        "người mang bánh mì và báo, không khí thơm mùi mưa đêm qua. "
        "Đến trưa, các quảng trường đầy sinh viên và nhân viên văn "
        "phòng ăn trưa trên bậc đá và nói về tin tức trong ngày. Khi "
        "chiều tối đến, đèn được thắp lên từng chiếc một và đường phố "
        "lại trở nên yên tĩnh."
    ),
    "id": (
        "Di kota, pagi hari dimulai dengan suara kereta api dan "
        "toko-toko kecil di sepanjang jalan utama yang perlahan "
        "dibuka. Orang-orang membawa roti dan koran, dan udara berbau "
        "hujan yang turun semalam. Menjelang siang, alun-alun penuh "
        "dengan mahasiswa dan pegawai kantor yang makan siang di "
        "tangga batu dan berbicara tentang berita hari itu. Ketika "
        "malam tiba, lampu dinyalakan satu per satu dan jalan-jalan "
        "kembali sunyi."
    ),
    "bg": (
        "В града сутрините започват със звука на влаковете и бавното "
        "отваряне на малките магазини по главната улица. Хората носят "
        "хляб и вестници, а въздухът мирише на дъжд, паднал през "
        "нощта. До обяд площадите са пълни със студенти и чиновници, "
        "които обядват на каменните стъпала и говорят за новините на "
        "деня. Когато дойде вечерта, лампите светват една по една и "
        "улиците отново стават тихи."
    ),
    "hr": (
        "U gradu jutra počinju zvukom vlakova i polaganim otvaranjem "
        "malih trgovina duž glavne ulice. Ljudi nose kruh i novine, a "
        "zrak miriše na kišu koja je pala tijekom noći. Do podneva "
        "trgovi su puni studenata i službenika koji ručaju na kamenim "
        "stubama i razgovaraju o vijestima dana. Kad dođe večer, "
        "svjetiljke se pale jedna po jedna i ulice ponovno postaju "
        "tihe."
    ),
    "et": (
        "Linnas algavad hommikud rongide heliga ja väikeste poodide "
        "aeglase avamisega peatänava ääres. Inimesed kannavad leiba ja "
        "ajalehti ning õhk lõhnab öösel sadanud vihma järele. "
        "Keskpäevaks on väljakud täis üliõpilasi ja ametnikke, kes "
        "söövad lõunat kivitrepil ja räägivad päevauudistest. Kui "
        "saabub õhtu, süttivad lambid ükshaaval ja tänavad muutuvad "
        "taas vaikseks."
    ),
    "lt": (
        "Mieste rytai prasideda traukinių garsu ir lėtu mažų "
        "parduotuvių atidarymu pagrindinėje gatvėje. Žmonės nešasi "
        "duoną ir laikraščius, o oras kvepia naktį iškritusiu lietumi. "
        "Iki vidurdienio aikštės pilnos studentų ir tarnautojų, kurie "
        "pietauja ant akmeninių laiptų ir kalba apie dienos naujienas. "
        "Atėjus vakarui, žibintai užsidega vienas po kito ir gatvės "
        "vėl tampa tylios."
    ),
    "lv": (
        "Pilsētā rīti sākas ar vilcienu skaņu un mazo veikalu lēnu "
        "atvēršanos gar galveno ielu. Cilvēki nes maizi un avīzes, un "
        "gaiss smaržo pēc naktī nolijušā lietus. Līdz pusdienlaikam "
        "laukumi ir pilni ar studentiem un ierēdņiem, kuri pusdieno uz "
        "akmens kāpnēm un runā par dienas ziņām. Kad pienāk vakars, "
        "lampas iedegas cita pēc citas, un ielas atkal kļūst klusas."
    ),
}

# Function-word inventories for the languages without a corpus WORD_POOL —
# the strongest trigram signal, mirroring the pool boost below.
_FUNCTION_WORDS = {
    "pt": "o a os as um uma de do da em no na para com não que se por é "
          "são mais como mas ou seu sua este esta isso ele ela nós eles",
    "it": "il lo la i gli le un una di del della in nel nella per con non "
          "che si da è sono più come ma o suo sua questo questa ciò lui",
    "nl": "de het een van in op voor met niet dat zich door is zijn meer "
          "zoals maar of hun dit deze dat hij zij wij jullie ook naar",
    "pl": "w na do z i nie że się po o jest są bardziej jak ale lub jego "
          "jej ten ta to on ona my oni też przez od dla przy były być",
    "sv": "den det en ett av i på för med inte att sig genom är var mer "
          "som men eller deras den här denna han hon vi de också till",
    "tr": "ve bir bu da de için ile olarak daha çok en gibi ama ancak "
          "veya ki o ben sen biz siz onlar ne var yok olan oldu değil mi "
          "her şey sonra önce kadar şu hem ya diye göre",
    "cs": "a v na se je že s z do o k i po ale jako za od při nebo už "
          "být byl byla bylo jsou jsem jsme tento tato toto ten ta to on "
          "ona my vy oni také ještě když aby před mezi",
    "da": "og i at det er en den til på de med han af for ikke der var "
          "som jeg om et men hun sig sin har vi os deres også når kun "
          "efter over under mellem hvad hvor hvis nu",
    "fi": "ja on ei se että hän oli mutta olla joka tämä kun ovat mitä "
          "hänen sen kanssa kuin myös jo niin vain vielä sitten koska "
          "jos me te he minä sinä nyt mukaan ilman",
    "hu": "a az és hogy nem is egy ez volt de meg már csak el ha mint "
          "még vagy ők mi ti én te ő minden olyan nagyon lehet kell "
          "majd után előtt között ellen nélkül szerint",
    "ro": "și de a în la cu pe care este o un pentru nu se mai din sau "
          "dar când ca după ce această acest sunt fost fi am ai are "
          "avem ei ele noi voi fără între despre până",
    "uk": "і в на не що з до як це я ти він вона ми ви вони але або так "
          "уже від для при між під над без через коли якщо тому бути "
          "був була було є цей ця те того їх нас вам",
    "vi": "và của là có không được một người trong cho với các những "
          "này đó khi đã sẽ rồi cũng như để từ trên ra vào lại còn "
          "nhưng nếu vì theo về sau trước nhiều rất",
    "id": "yang dan di ke dari untuk dengan pada adalah ini itu tidak "
          "ada akan sudah telah bisa dapat dalam atau tetapi jika "
          "karena ketika kami kita mereka dia saya kamu juga oleh",
    "bg": "и в на не че с от за да се по как това е са бяха той тя ние "
          "вие те но или така вече при между под над без през когато "
          "ако защото беше било този тази тези него нея тях нас вас",
    "hr": "i u na je se da su za s od ne kao ali ili već do po o pri "
          "kroz kada ako jer bio bila bilo biti ovaj ova ovo taj ta to "
          "on ona mi vi oni također još prije poslije između bez prema",
    "et": "ja on ei et ta oli aga olla mis see kui nad mida tema selle "
          "koos nagu ka juba nii ainult veel siis sest kas me te ma sa "
          "nüüd ilma pärast enne vahel üle alla kes kus oma välja",
    "lt": "ir yra ne kad su iš į po o kaip bet arba jau prie tarp per "
          "kai jei nes buvo būti šis ši tai jis ji mes jūs jie taip "
          "pat dar prieš be pagal apie iki nuo labai gali turi",
    "lv": "un ir ne ka ar no uz pēc kā bet vai jau pie starp caur kad "
          "ja jo bija būt šis šī tas viņš viņa mēs jūs viņi arī vēl "
          "pirms bez par līdz kopš ļoti var savu tikai",
}

# Script-histogram shortcut (the block-normalization real detectors apply
# before n-grams), over disjoint (block-lo, block-hi, class) blocks: the
# kana/hangul/han split decides ja/zh/ko; a class named by a language code
# is a single-dominant-language script whose histogram IS the answer
# (Devanagari → hi, Bengali → bn, Ethiopic → am), consulted in this order.
_SCRIPT_BLOCKS = (
    (0xAC00, 0xD7A3, "hangul"), (0x1100, 0x11FF, "hangul"), (0x3130, 0x318F, "hangul"),
    (0x3040, 0x30FF, "kana"), (0x4E00, 0x9FFF, "han"), (0x3400, 0x4DBF, "han"),
    (0x0600, 0x06FF, "arabic"), (0x0750, 0x077F, "arabic"),
    (0x0400, 0x04FF, "cyrillic"), (0x0370, 0x03FF, "el"), (0x0590, 0x05FF, "he"),
    (0x0E00, 0x0E7F, "th"), (0x0900, 0x097F, "hi"), (0x0980, 0x09FF, "bn"),
    (0x0A00, 0x0A7F, "pa"), (0x0A80, 0x0AFF, "gu"), (0x0B00, 0x0B7F, "or"),
    (0x0B80, 0x0BFF, "ta"), (0x0C00, 0x0C7F, "te"), (0x0C80, 0x0CFF, "kn"),
    (0x0D00, 0x0D7F, "ml"), (0x0D80, 0x0DFF, "si"), (0x0E80, 0x0EFF, "lo"),
    (0x1000, 0x109F, "my"), (0x10A0, 0x10FF, "ka"), (0x0530, 0x058F, "hy"),
    (0x1200, 0x137F, "am"), (0x1780, 0x17FF, "km"),
)
_SCRIPT_CLASSES = list(dict.fromkeys(c for _, _, c in _SCRIPT_BLOCKS))
_BLOCKS = np.array(
    sorted((lo, hi, _SCRIPT_CLASSES.index(c)) for lo, hi, c in _SCRIPT_BLOCKS)
).T
_SCRIPT_MIN_NONASCII = 8


def _code_points(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)


# Marker letters, ≥2 of them against stray loanwords: Urdu's retroflex set
# (ٹ ڈ ڑ ں ے ہ) is in neither Persian nor Arabic; the Perso-Arabic additions
# (گ چ پ ژ) and kaf/ye forms (ک ی vs Arabic ك ي) separate Persian from Arabic;
# Serbian's ј љ њ ћ ђ џ are in no other Cyrillic script (ru/uk: trigrams).
_MARKS = [_code_points(m) for m in ("ٹڈڑںےہ", "گچپژکی", "јљњћђџЈЉЊЋЂЏ")]
# outcome of each shortcut rule below, in the order they are consulted
_SHORTCUT_CODES = [None, "ko", "ja", "zh", "ur", "fa", "ar", "sr"] + _SCRIPT_CLASSES[5:]


def _script_shortcuts(windows: list[str]) -> list[str | None]:
    """Script-dominance language of each window (None: no shortcut), from
    one code-point view of the batch: every non-ASCII code point is mapped
    to its script class by binary search and counted per (window, class)."""
    n_cls = len(_SCRIPT_CLASSES) + 1  # + "other"
    cp = _code_points("".join(windows))
    doc = np.repeat(np.arange(len(windows)), [len(w) for w in windows])
    cp, doc = cp[cp >= 0x80], doc[cp >= 0x80]
    lo, hi, block_cls = _BLOCKS
    blk = np.searchsorted(lo, cp, side="right") - 1
    cls = np.where((blk >= 0) & (cp <= hi[blk]), block_cls[blk], n_cls - 1)
    counts = np.bincount(doc * n_cls + cls, minlength=len(windows) * n_cls)
    counts = counts.reshape(len(windows), n_cls)
    n = counts.sum(axis=1)
    hangul, kana, han, arabic, cyrillic, *single = (
        counts / np.maximum(n, 1)[:, None]
    ).T
    ur, fa, sr = (
        np.bincount(doc[np.isin(cp, m)], minlength=len(windows)) >= 2
        for m in _MARKS
    )
    rules = [
        n < _SCRIPT_MIN_NONASCII,
        hangul >= 0.3,
        (kana >= 0.05) & (kana + han >= 0.3),
        han >= 0.3,
        (arabic >= 0.3) & ur,
        (arabic >= 0.3) & fa,
        arabic >= 0.3,
        (cyrillic >= 0.3) & sr,
    ] + [frac >= 0.3 for frac in single[:-1]]
    rule = np.select(rules, list(range(len(rules))), default=0)
    return [_SHORTCUT_CODES[r] for r in rule.tolist()]


# Trigrams are taken over a letters-only form of each text: lower-cased,
# every run of non-letters (``_CLEAN_RE``) one space, one space padding
# each end, so word boundaries appear as spaces inside trigrams.
# ``_LETTER`` holds the regex's verdict on every BMP code point.
_CLEAN_RE = re.compile(r"[\W\d_]")
_LETTER = np.arange(0x10000, dtype=np.uint32)
_LETTER[0xD800:0xE000] = 0  # surrogates: no text holds them
_LETTER = _code_points(_CLEAN_RE.sub("\0", _LETTER.tobytes().decode("utf-32-le"))) != 0


def _trigrams(texts: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Code points of the texts' letters-only forms joined, and the start
    and text of every char trigram, in text order; no trigram spans two
    texts."""
    lower = [t.lower() for t in texts]
    src = _code_points("".join(lower)).astype(np.int64)
    letter = _LETTER[np.minimum(src, 0xFFFF)]
    if (src > 0xFFFF).any():  # astral: ask the regex once per code point
        astral, inv = np.unique(src[src > 0xFFFF], return_inverse=True)
        verdict = [not _CLEAN_RE.match(chr(c)) for c in astral.tolist()]
        letter[src > 0xFFFF] = np.array(verdict)[inv]
    pos = np.flatnonzero(letter)
    row = np.repeat(np.arange(len(texts)), [len(t) for t in lower])[pos]
    # a letter after a non-letter gets a space, except its text's first
    gap = np.r_[False, (pos[1:] > pos[:-1] + 1) & (row[1:] == row[:-1])]
    lens = 2 + np.bincount(row, weights=1 + gap, minlength=len(texts)).astype(int)
    cp = np.full(lens.sum(), ord(" "))
    cp[np.cumsum(1 + gap) + 2 * row] = src[pos]
    row = np.repeat(np.arange(len(texts)), lens)
    offset = np.arange(cp.size) - (np.cumsum(lens) - lens)[row]
    at = np.flatnonzero(offset <= (lens - 3)[row])
    return cp, at, row[at]


def build_profiles() -> "NBClassifier":
    """Compiled language classifier. Seed = authored paragraph +
    function-word inventory per language (the same signal real n-gram
    detectors rely on)."""
    from rika_ray.corpus import WORD_POOL

    seeds = dict(_SEED_TEXT)
    for lang_code in list(seeds):
        # function words are the strongest n-gram signal; weight them in
        if lang_code in WORD_POOL:
            seeds[lang_code] += " " + " ".join(WORD_POOL[lang_code]) * 3
        elif lang_code in _FUNCTION_WORDS:
            seeds[lang_code] += " " + _FUNCTION_WORDS[lang_code] * 3
    return NBClassifier(seeds)


class NBClassifier:
    """Multinomial naive-Bayes over char trigrams (add-one smoothing): a
    (n_vocab + 1, n_langs) float32 log-prob matrix whose last row is a zero
    pad, a per-language unseen-gram floor, and tables giving a trigram's
    vocabulary id in three gathers (code point → alphabet index, index pair
    → seen bigram, bigram + index → id)."""

    def __init__(self, seed_texts: dict[str, str]) -> None:
        self.langs = sorted(seed_texts)
        n_langs = len(self.langs)
        cp, at, lang = _trigrams([seed_texts[x] for x in self.langs])
        chars, a = np.unique(cp, return_inverse=True)
        self._base = base = chars.size + 1  # the alphabet + "unknown"
        self._char = np.full(chars[-1] + 2, chars.size, np.int32)
        self._char[chars] = np.arange(chars.size)
        grams, vid = np.unique(
            (a[at] * base + a[at + 1]) * base + a[at + 2], return_inverse=True
        )
        bigrams, big = np.unique(grams // base, return_inverse=True)
        self._bigram = np.full(base * base, bigrams.size, np.int32)
        self._bigram[bigrams] = np.arange(bigrams.size)
        self._trigram = np.full((bigrams.size + 1) * base, grams.size, np.int32)
        self._trigram[big * base + grams % base] = np.arange(grams.size)
        # log((count + 1) / total) with total = grams + |V| + 1 per language
        counts = np.bincount(vid * n_langs + lang, minlength=(grams.size + 1) * n_langs)
        counts = counts.reshape(grams.size + 1, n_langs)
        total = counts.sum(axis=0) + grams.size + 1
        logp = counts + 1.0
        logp /= total
        self.logp = np.log(logp, out=logp).astype(np.float32)
        self.logp[-1] = 0.0
        self.floor = np.log(1.0 / total).astype(np.float32)

    def scores(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Per text: best language index (-1 without trigrams) and the
        mean per-gram log-prob MARGIN above the winner's unseen-gram floor,
        the certainty signal (out-of-model scripts hit the floor on every
        trigram and score ≈0), invariant to vocabulary size. A text's
        log-prob is a float32 sum over its distinct known trigrams in order
        of first occurrence, whatever else the batch holds."""
        n, n_vocab = len(texts), self.logp.shape[0] - 1
        cp, at, row = _trigrams(texts)
        a, base = self._char[np.minimum(cp, self._char.size - 1)], self._base
        vid = self._trigram[self._bigram[a[at] * base + a[at + 1]] * base + a[at + 2]]
        n_grams = np.bincount(row, minlength=n)
        n_miss = np.bincount(row[vid == n_vocab], minlength=n)
        row, vid = row[vid < n_vocab], vid[vid < n_vocab]
        # distinct (text, trigram) pairs: sorting pair × hits + position
        # starts each pair's run at its first occurrence
        key = np.sort((row * n_vocab + vid) * row.size + np.arange(row.size))
        pair = key // row.size
        run = np.flatnonzero(np.diff(pair, prepend=-1))
        first = key[run] - pair[run] * row.size
        count = np.zeros(row.size, np.float32)
        count[first] = np.diff(run, append=row.size)
        first.sort()
        row, vid, count = row[first], vid[first], count[first]
        # pair k of each text goes to slab k (padding: the zero row);
        # summing over the slabs adds each text's pairs in sequence
        per_row = np.bincount(row, minlength=n)
        at = (np.arange(row.size) - (np.cumsum(per_row) - per_row)[row]) * n + row
        slabs = per_row.max(initial=0)
        src, weight = np.full(slabs * n, n_vocab), np.ones(slabs * n, np.float32)
        src[at], weight[at] = vid, count
        totals = self.logp[src]
        totals *= weight[:, None]
        totals = totals.reshape(slabs, n, len(self.langs)).sum(axis=0)
        totals += n_miss.astype(np.float32)[:, None] * self.floor
        best = totals.argmax(axis=1)
        mean = totals[np.arange(n), best].astype(np.float64) / np.maximum(n_grams, 1)
        margin = mean - self.floor[best].astype(np.float64)
        return np.where(n_grams > 0, best, -1), margin


# Certainty floor (the Optimaize detector is certainty-thresholded,
# lib/rika.rb:58-61). In-model text has a margin ≥ 0.59; out-of-model
# scripts score ≈ 0 and random ASCII gibberish ≈ 0.06.
MIN_MARGIN = 0.25
_CHUNK_ROWS = 512  # texts per pass: bounds the scoring arrays


def detect_languages(
    texts: list[str | None], profiles: "NBClassifier"
) -> list[str | None]:
    """ISO 639-1 code of each text, or None when undetermined (too-short
    input or below the model's certainty floor — e.g. out-of-model
    scripts). Each text's result depends only on that text."""
    out: list[str | None] = [None] * len(texts)
    for lo in range(0, len(texts), _CHUNK_ROWS):
        chunk = enumerate(texts[lo : lo + _CHUNK_ROWS], lo)
        gate = [(i, t.strip()) for i, t in chunk if t]
        gate = [(i, s[:_DETECT_PREFIX]) for i, s in gate if len(s) >= MIN_CHARS]
        rest = []
        for (i, window), script in zip(gate, _script_shortcuts([w for _, w in gate])):
            out[i] = script
            if script is None:
                rest.append((i, window))
        best, margin = profiles.scores([w for _, w in rest])
        for (i, window), li, m in zip(rest, best.tolist(), margin.tolist()):
            if li < 0 or m < MIN_MARGIN:
                continue
            out[i] = profiles.langs[li]
            if out[i] in ("ru", "bg"):
                # orthography tie-break for the hardest Cyrillic pair:
                # Bulgarian never uses ы/э/ё; its vocalic ъ (съ-, ще бъде)
                # is everywhere while Russian's hard sign is rare (≥2 in the
                # window decides Bulgarian). NB margins decide the rest.
                if any(c in window for c in "ыэёЫЭЁ"):
                    out[i] = "ru"
                elif window.count("ъ") + window.count("Ъ") >= 2:
                    out[i] = "bg"
    return out


def detect_language(text: str | None, profiles: "NBClassifier") -> str | None:
    """``detect_languages`` of one text."""
    return detect_languages([text], profiles)[0]


class LangDetectStage:
    """`map_batches` callable (a fused-kernel stage, and the ``lang_id``
    task): adds a `language` column from `content`, one
    ``detect_languages`` call per batch. Profiles are built once (T1)."""

    def __init__(self) -> None:
        self.profiles = build_profiles()

    def __call__(self, batch: pa.Table) -> pa.Table:
        langs = detect_languages(batch["content"].to_pylist(), self.profiles)
        return batch.append_column("language", pa.array(langs, pa.string()))
