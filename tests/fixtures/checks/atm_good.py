"""Checks fixture: atomic-persistence — the blessed discipline.

Twins of ``atm_bad.py``: the full tmp + flush + fsync + ``os.replace``
sequence in text and in binary mode, durable text and binary appends
that flush and fsync, a binary bulk write (out of scope), a read-only
open, and an annotated throwaway report.  Expected: no ATM findings.
"""

import json
import os


def save_atomic(path, payload):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def append_durable(path, row):
    with open(path, "a") as fh:
        fh.write(row + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def publish_bytes(path, data):
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def append_bytes_durable(path, data):
    with open(path, "a+b") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())


def save_binary(path, blob):
    with open(path, "wb") as fh:  # bulk array data goes through hdf5lite
        fh.write(blob)


def read_config(path):
    with open(path) as fh:
        return json.load(fh)


def save_report(path, text):
    with open(path, "w") as fh:  # noqa: ATM001 - throwaway report artifact
        fh.write(text)
