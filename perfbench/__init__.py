"""Layered benchmark for the polyteam CLI; see README.md."""
