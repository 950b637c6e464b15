"""Paper-artifact benchmark: see README.md."""
