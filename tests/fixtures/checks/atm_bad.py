"""Checks fixture: atomic-persistence violations.

Expected: two ATM001 (bare open-for-write onto the final path;
``write_text`` straight to the destination), two ATM002 (a tmp-staged
text and a tmp-staged binary write published by ``os.replace`` without
fsync), and two ATM003 (a text and a binary append to a durable log
with no flush + fsync).
"""

import json
import os


def save_bare(path, payload):
    with open(path, "w") as fh:  # no staging at all
        json.dump(payload, fh)


def save_write_text(path, payload):
    path.write_text(json.dumps(payload))


def save_unsynced(path, payload):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)  # the name flips before the bytes land


def append_row(path, row):
    with open(path, "a") as fh:
        fh.write(row + "\n")


def publish_unsynced(path, data):
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
    os.replace(tmp, path)  # flushed to the page cache, not to disk


def append_bytes(path, data):
    with open(path, "ab") as fh:
        fh.write(data)
        fh.flush()
