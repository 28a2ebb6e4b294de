"""The digests the code uses, without mapping OpenSSL.

``hashlib`` loads ``_hashlib`` (and with it ``libcrypto``, ~3 MB
resident) even though BLAKE2b always comes from CPython's builtin
``_blake2``. These are the builtin constructors hashlib itself falls
back to; the digests are byte-for-byte the same.
"""

__all__ = ["blake2b", "sha256", "sha512"]

try:
    from _blake2 import blake2b
    from _sha256 import sha256
    from _sha512 import sha512
except ImportError:  # pragma: no cover - interpreters without them
    from hashlib import blake2b, sha256, sha512
