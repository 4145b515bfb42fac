"""Tests of the serving benchmark itself."""
