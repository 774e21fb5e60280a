import workloads as wl

#: 24 of the evaluation world's (property, type) keys, as one mine
#: of it keeps above the occurrence threshold.
KEYS = {
    (p, t)
    for t, props in {
        "animal": ("big", "cute", "dangerous", "deadly", "friendly"),
        "city": ("big", "calm", "cheap", "hectic", "multicultural"),
        "celebrity": ("cool", "crazy", "pretty", "young"),
        "profession": ("dangerous", "exciting", "rare", "solid", "vital"),
        "sport": ("addictive", "boring", "dangerous", "fast", "popular"),
    }.items()
    for p in props
}
PAIRS = {(f"e{i}", p, t) for i in range(10) for p, t in KEYS}


def test_schedule_identical_for_same_seed():
    a = wl.build_query_mix(KEYS, PAIRS, seed=5)
    b = wl.build_query_mix(KEYS, PAIRS, seed=5)
    assert a == b
    one = wl.poisson_schedule(a, 2000, 2.0, 5, "fixed", check_every=25)
    two = wl.poisson_schedule(b, 2000, 2.0, 5, "fixed", check_every=25)
    assert one == two
    other = wl.poisson_schedule(
        wl.build_query_mix(KEYS, PAIRS, seed=6), 2000, 2.0, 6, "fixed"
    )
    assert [p.payload for p in other] != [p.payload for p in one]


def test_arrivals_follow_the_offered_rate():
    mix = wl.build_query_mix(KEYS, PAIRS, seed=1)
    plans = wl.poisson_schedule(mix, 1000, 5.0, 1, "fixed")
    assert 4500 < len(plans) < 5500
    assert all(a.due <= b.due for a, b in zip(plans, plans[1:]))
    assert plans[-1].due < 5.0


def test_mix_exceeds_the_default_cache_size():
    assert KEYS <= wl.world_keys()
    mix = wl.build_query_mix(wl.world_keys(), PAIRS, seed=1)
    assert mix.distinct > wl.SERVE_CACHE_SIZE
    assert len(set().union(*map(set, mix.requests.values()))) == mix.distinct
    plans = wl.poisson_schedule(mix, 2000, 7.0, 1, "fixed")
    assert len({p.payload for p in plans}) > wl.SERVE_CACHE_SIZE


def test_mix_holds_every_kind():
    mix = wl.build_query_mix(KEYS, PAIRS, seed=1)
    assert set(mix.requests) == set(wl.KIND_SHARES)
    assert any("not" in path for path in mix.requests["ask"])
    assert all(path.startswith("/explain?")
               for path in mix.requests["explain"])
    assert all("countries" in path or "lakes" in path
               or "mountains" in path for path in mix.requests["unmined"])


def test_ingest_schedule_is_fixed_and_pinned():
    batches = [[{"text": f"doc {i}", "doc_id": f"d{i}"}] for i in range(10)]
    plans = wl.ingest_schedule(batches, 0.5, 4)
    assert [p.due for p in plans] == [0.5, 1.0, 1.5, 2.0]
    assert all(p.conn == 0 and p.keep_body for p in plans)
    assert plans == wl.ingest_schedule(batches, 0.5, 4)


def test_corpus_is_seeded():
    a = wl.build_corpus(3)
    assert len(a) == wl.CORPUS_DOCS
    assert a == wl.build_corpus(3)
    assert a.texts != wl.build_corpus(4).texts
