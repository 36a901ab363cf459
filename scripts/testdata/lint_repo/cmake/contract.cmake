# Fixture: FMA contraction on; only -ffp-contract=off keeps the bits.
add_compile_options(-ffp-contract=fast)
