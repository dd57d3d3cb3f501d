"""Byte-exact help and usage text.

``test_run_parses_like_the_top_level_parser`` holds ``run`` to a parser
built from the same code, so it cannot see the help text or a usage error
drift.  These digests pin it: the sha256 of ``qdistill -h``, of each
``qdistill COMMAND -h``, and of the usage error of each ``PARSE_CASES``
request that argparse rejects, all at ``COLUMNS=80``.  Help goes to
stdout and a usage error to stderr; the digest is of what the request
prints, stdout then stderr.

The digests were recorded on Python 3.11.7, whose argparse sets the
layout; another Python may wrap or word usage lines differently.  Then
check that the change is that and nothing more, and re-record with
``PYTHONPATH=src python tests/test_usage_bytes.py``, which prints the
digests of the current code.
"""

import contextlib
import hashlib
import io
import os
import sys
from unittest import mock

import pytest

from qdistill import cli

from test_cli import PARSE_CASES

COMMANDS = ("fixed-point", "scan", "bounds", "steering-audit", "montecarlo",
            "trace")

#: The PARSE_CASES requests that argparse rejects with a usage error.
USAGE_ERRORS = ("no-command", "unknown-option", "unknown-command",
                "command-prefix", "separator-first", "trailing-positional",
                "leftover-option", "leftovers-after-separator",
                "missing-required", "invalid-choice", "invalid-int",
                "ambiguous-abbreviation")

#: name -> (argv, exit code).
REQUESTS = {
    "help": (["-h"], 0),
    **{f"{command}-help": ([command, "-h"], 0) for command in COMMANDS},
    **{f"error-{name}": (PARSE_CASES[name], 2) for name in USAGE_ERRORS},
}

DIGESTS = {
    "help":
        "50b0b8b7f1642535c92c325a96bc5ed3a2e64d8e6ac6a564ff04bf03a69d3576",
    "fixed-point-help":
        "4bc560873b2fd28fe1be2ca0339b45ee8e9b65a1007bf543646d896c328f0ab0",
    "scan-help":
        "fdd3ea6d5efb93c07edc4cd973b3eab86d7bfd53cfef2ea3fc07a969c3cb5dee",
    "bounds-help":
        "428ca4bda7a7771a31fe857afaad0c8b3a877a4bb20aa4aa6f5d4ab363721a91",
    "steering-audit-help":
        "91f50b2fad8d73eaed17650f9ede533333d9bcb17fbfd64d50eaf9314e018250",
    "montecarlo-help":
        "01242ff9e4f9e094c144d94c36433eabd0d430fa9a2bb26de4e1e25930e16cad",
    "trace-help":
        "eaac1cc04ab3f90216c52160b06c5698c855dc871f73c3c74822e4f657d68c7b",
    "error-no-command":
        "d4e9b162fbeea7a3f3231ef004f9b32d9d02aa3a36c9ecc0216e8fd096fc54e0",
    "error-unknown-option":
        "d4e9b162fbeea7a3f3231ef004f9b32d9d02aa3a36c9ecc0216e8fd096fc54e0",
    "error-unknown-command":
        "e53839b2f48997fc3f027c537b7d9286489849cc5ed534a2ef7580962e26537a",
    "error-command-prefix":
        "85aa832a30fe1bc6ed6a759d2f3b5a03c69cf22f3953071a26cc8e6a5e2b8749",
    "error-separator-first":
        "69d5d564974a2a996cc652bd8077add74f211a1e35f9983a58ce936818d02579",
    "error-trailing-positional":
        "baaa92f2d37514f180de5fee45e2ab41423cb32530dd2abeb4b96c34c3845bcb",
    "error-leftover-option":
        "a03e29a450bca573e056a824ef77410f1287aae7437dc9dd3b6a9c51978f90cf",
    "error-leftovers-after-separator":
        "9b42ffab26d93d4e0b922bbfeb97686539f12190c2e5d3269ba8e85603c2f18f",
    "error-missing-required":
        "08827e21ecb7128da529cbec476bb9481bc3742bc6eee27d9730288cb97c4880",
    "error-invalid-choice":
        "0b533c7e92baa548c119b2475f661502a9d8e467252f592d1a7ee4dd5c2ccec6",
    "error-invalid-int":
        "c0e67363d1a9cf40fa77c68c84ce542c60de268b4dc195aafac1367a637152f1",
    "error-ambiguous-abbreviation":
        "5b29370bb7271362b842cdeb6518de409bd3171104fe62c5bd6a87e4b0a46d61",
}


def printed_digest(argv, code) -> str:
    """sha256 of what ``qdistill argv`` prints, stdout then stderr, at 80
    columns; the request must exit with ``code``."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert cli.run(list(argv)) == code
    text = out.getvalue() + err.getvalue()
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_request_has_a_digest():
    assert sorted(DIGESTS) == sorted(REQUESTS)


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_printed_bytes(name):
    assert printed_digest(*REQUESTS[name]) == DIGESTS[name]


if __name__ == "__main__":
    for name, (argv, code) in REQUESTS.items():
        digest = printed_digest(argv, code)
        sys.stdout.write(f'    "{name}":\n        "{digest}",\n')
