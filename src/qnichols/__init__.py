"""Exact computational algebra for finite quandles, enveloping groups,
braided module operators and the rank-two support calculus."""

__version__ = "0.1.0"
