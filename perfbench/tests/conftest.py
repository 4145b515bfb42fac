from perfbench.run import _add_import_paths

_add_import_paths()
