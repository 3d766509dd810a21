"""An end-to-end benchmark of the config-to-wire path; see README.md."""
