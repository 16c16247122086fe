import sys

# Compiling src/ into the checkout would leave bytecode that later runs from
# the same tree load instead of compiling, so they would start faster than a
# fresh checkout does.
sys.dont_write_bytecode = True
