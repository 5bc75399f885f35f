"""Covariance-matrix separability criteria and concurrence lower bounds
for finite-dimensional multipartite quantum states."""

__version__ = "0.1.0"
