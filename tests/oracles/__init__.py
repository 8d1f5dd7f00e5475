"""Slow reference implementations the fast paths are tested against.

Nothing under ``src/`` imports these: each module is the straightforward
version of an encoder that ``src/`` now has only in its compiled or flat
form, kept so differential tests can demand identical bytes and values.
"""
