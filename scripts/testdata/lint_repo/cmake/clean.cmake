# Fixture: flags that change no result pass (-ffast-math in a comment too).
add_compile_options(-ffp-contract=off -fno-math-errno -fno-fast-math)
# lint:allow(unsafe-fp-flag) — an escape hatch works in build files too
add_compile_options(-freciprocal-math)
set(NOTE "a # inside a string is not a comment: -fno-associative-math")
