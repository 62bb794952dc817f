"""Reference outputs the benchmark checks against, none computed by the engine here.

PUBLISHED_ROWS are the paper's rows with at most four elements: hex, n, r,
girth, nonbases, automorphism group order, bases-axioms verdict.  The digests
are sha256 of outputs recorded at the commit that introduced the benchmark;
those outputs must stay byte-identical.  make_reference.py recomputes them.
"""

PUBLISHED_ROWS = (
    ("3", 2, 1, 2, 0, 2, "commutative"),
    ("1", 2, 1, 1, 1, 1, "commutative"),
    ("7", 3, 1, 2, 0, 6, "commutative"),
    ("3", 3, 1, 1, 1, 2, "commutative"),
    ("1", 3, 1, 1, 2, 2, "commutative"),
    ("f", 4, 1, 2, 0, 24, "noncommutative"),
    ("7", 4, 1, 1, 1, 6, "commutative"),
    ("3", 4, 1, 1, 2, 4, "noncommutative"),
    ("1", 4, 1, 1, 3, 6, "commutative"),
    ("3f", 4, 2, 3, 0, 24, "noncommutative"),
    ("1f", 4, 2, 2, 1, 4, "noncommutative"),
    ("1e", 4, 2, 2, 2, 8, "noncommutative"),
    ("0b", 4, 2, 1, 3, 6, "commutative"),
    ("07", 4, 2, 2, 3, 6, "commutative"),
    ("03", 4, 2, 1, 4, 2, "commutative"),
    ("01", 4, 2, 1, 5, 4, "noncommutative"),
    ("f", 4, 3, 4, 0, 24, "commutative"),
)

# isomorphism classes with 2 <= n <= 4 and 1 <= r <= n - 1
TABLES4_CLASSES = 23

# sha256 of each TSV written by `qmatroid tables 4`
TABLES4_DIGESTS = {
    "table1": "a877c5de5db46341721ca30038daa84369c9a73abf2860cb78b8cec5f8291db9",
    "table2": "a53852c464f4079454e479f65bcae62ed97fac5a575c1d077017be82c9ae39b3",
    "table3": "7537f7078792520b8077e1fe37588e7fcdca5749d79e625fc78c486298e2148b",
    "table4": "6029cdb71fc0d9dd047136f4db6e32b328b3be6b81e007436bc9c52413609370",
    "unknown": "3bf014d7a979cb7838fa9ea0ab87a1f4e8485f66966aa7d75f66997f365625c0",
}

# sha256 of the write_gb text of the complete U(2,5) bases basis
U25_BASIS_DIGEST = "04a1d040a892b63de111aaa4df1b4c994c9954e5e7e0e6e6c571bd1e09d40af5"

# sha256 of the write_gb text of the degree-3 Fano feed slice, for each of the
# 30 labelled Fano planes, keyed by revlex hex code
FANO_BASIS_DIGESTS = {
    "3f7eefd6f": "a63203af8e56b1aae6cd54b1cbd7a303e1c0518801d50bcc75851da2d1b9a9f9",
    "3f7f5fbaf": "737aebe896ae78afae6bbf02b4e12897ae8e6d0e940e39f5e7be9fc6767f45c0",
    "3fbdefcf7": "4b6dbdc8300f3e89ac986d1e0e420a288a4c2a380a81c415391e09665342cd60",
    "3fbf3f7b7": "6804629b68303caaba553ecf0155ba0991a8fe16bdffc1683cf60213990ece05",
    "3fdddfafb": "4c0f105b57d087d43e20676ba34f13d3c9bde3f1c33d0478285c7c88a8268625",
    "3fdebf77b": "b3ba76a918c79c8a093d14bebe66557cbacc4c589ce79a744bca831d67409335",
    "5dfbf7d6f": "190d71bb7962bb5337664766251c3824cd1af6ea49e20e26bfdf9ef0a03b166a",
    "5dff5efcf": "4b37a82524fc1e11dc7b59a07b4709e56346a083954deef7876249e63f77de92",
    "5ef7f7cf7": "763305fd9deb37851512d2d910e9156437c1a4f2eb2816268328fe9992e8fff6",
    "5eff3dfd7": "2c771effbf1d20b4b3613c3f9d41ee27cf0b51e420019422eac5a48f7cf32411",
    "5fd7deefd": "0b5a86c9bca7b0c7c4e5ce57e440b5e208f6c3d712eb7e66be5f4a901eea1e8d",
    "5fdbbdf7d": "cafa2e220dcb5efc17efb7149c59fb6185156688b211ec7b5c9ccff44cf26650",
    "6bfbf7baf": "736af395f850a44fa4982a4281d84a979bfe6629dd1b36b858a5c4600a28a6ba",
    "6bfeeefcf": "95ab24dc282387a06547a02ce142eb608173d1f94fa512cb506f4dfbefccf17b",
    "6eeff7afb": "3e2bc8ed40916a5701bff8dd7b6cd40fc38a1594240feacd61aec1cec3fc826e",
    "6efebbfdb": "869a291234261d0351ef054ea243f8dc234bb7993d3d209413b6d9598f0dc57b",
    "6fafeeefd": "6788ae5190e00b5bffefae2e0423968bf582374ffd54e55384fdfcdbff926207",
    "6fbbbbfbd": "d86cf75beb268122489a9aabed265fbede906a3bc33a7fcef93ab0fe62a4c4c6",
    "73f7f77b7": "b5bf42e603df7893ba0a514f886f7a470f568046640e279c3876034d4d2068c7",
    "73fdedfd7": "671e228ef21ed6a3d30eb837aeae2ae2310862655d5ecb2e0d12565ec248cf76",
    "75eff777b": "5b523e3f5bc776fa9e9c5473705eaf0f0b30622113895c4ad47a52636c3a0a14",
    "75fddbfdb": "a06d0b15e48ff3d67d0a8f8e3231b806ade57ddc785d7ac748f8e40a7f2413a6",
    "776fedf7d": "266ae46ab997717da7b97be8321ddc3e9d0aacd36909c41a665217273e0718a8",
    "7777dbfbd": "450c7fffa997b4ac6ad8f27d858d620db7841367ad41ed35ea276e68cc3c837b",
    "7bd6fe7fe": "b10c3587d53a578f99fe052b80fb22a4670b9f487864822ada627906f60a0cd1",
    "7bd9fdbfe": "b3ac950a58e68f0e9aaa3af6b9273d9ace915d949d08cd93e9001a16669b02d9",
    "7daf7e7fe": "c08f6c4561ba00cf08a2b36d16f5a76e006eee82ddf8ab9871fff0a9528ca0c6",
    "7db9fbdfe": "d9575cbf846baa1525c10b9ea6b048663b96895c01463250c0aa812ad01a58ea",
    "7e6f7dbfe": "2cb59d6266f55c77660208c06290224957ee58dc5c65acbcd5bb2d1c5c383336",
    "7e76fbdfe": "774d2464791170f447a9f4f1641bcf25b1df3f85c08a55da4bc760249d2a12b9",
}
