"""Example application objects used by tests, benchmarks, and examples.

- :mod:`repro.apps.bank` — the paper's BankAccount measurement object;
- :mod:`repro.apps.auction` — an order-sensitive auction house (the
  "more realistic application" of the paper's future-work list).
"""
