"""Pipeline stages: each is a `map_batches`-shaped kernel (a function, or
a callable class built once per worker process) over Arrow batches.
"""
