"""Desk-scale stand-ins for everything the full system does with LLMs.

Submodules:

* ``sandbox``   deterministic tool execution with effect logging
* ``domains``   synthetic domain specs (tool libraries, templates, pools)
* ``generator`` grey-box corpus generation from a domain spec
* ``surrogate`` imitation model: a domain with fitted distributions and weights
"""
