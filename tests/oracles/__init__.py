"""Naive reference implementations the optimised product code is pinned to."""
