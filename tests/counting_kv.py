"""``CountingKV``: the test suite's one counting store wrapper.

Counts what a store is asked to do — writes, commits and reads — so a
test can pin how much work a path costs in store operations rather
than in time.  ``CountingKV`` is a ``MemoryKV``, ``CountingDurableKV``
a ``DurableKV``; both count alike.
"""

from collections import Counter

from repro.storage.kvstore import DurableKV, MemoryKV


def _family(key):
    return key[: key.find("/") + 1]


class Counting:
    """Mixin over a store class.

    * ``puts`` / ``put_keys``, ``deletes`` / ``delete_keys``, ``commits``;
    * ``reads[family]``: values handed out by ``get`` (misses included)
      and ``scan``, per key family (``"view/"``), and ``read_keys``, the
      key of each;
    * ``keys_prefixes``: the prefix of every ``keys()`` call.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reset_counts()

    def reset_counts(self):
        self.puts = 0
        self.deletes = 0
        self.commits = 0
        self.put_keys = []
        self.delete_keys = []
        self.keys_prefixes = []
        self.reads = Counter()
        self.read_keys = []

    def put(self, key, value):
        self.puts += 1
        self.put_keys.append(key)
        super().put(key, value)

    def delete(self, key):
        self.deletes += 1
        self.delete_keys.append(key)
        return super().delete(key)

    def commit(self):
        self.commits += 1
        super().commit()

    def get(self, key, default=None):
        self.reads[_family(key)] += 1
        self.read_keys.append(key)
        return super().get(key, default)

    def scan(self, prefix=""):
        for key, value in super().scan(prefix):
            self.reads[_family(key)] += 1
            self.read_keys.append(key)
            yield key, value

    def keys(self, prefix=""):
        self.keys_prefixes.append(prefix)
        return super().keys(prefix)


class CountingKV(Counting, MemoryKV):
    """A ``MemoryKV`` that counts."""


class CountingDurableKV(Counting, DurableKV):
    """A ``DurableKV`` that counts."""
