"""Straightforward implementations the fast paths are checked against.

Each oracle computes what a production path computes, the simple way;
the tests assert that both agree, so the oracles live here and nowhere
at runtime.
"""
