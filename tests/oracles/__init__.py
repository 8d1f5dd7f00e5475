"""Slow reference implementations the fast paths are tested against.

Nothing under ``src/`` imports these: each module is the straightforward
version of an encoder, decoder or cipher that ``src/`` now has only in its
compiled, flat or fused-table form, kept so differential tests can demand
identical bytes and values.
"""
