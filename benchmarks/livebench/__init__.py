"""livebench: the repository's end-to-end and per-layer benchmark."""
