import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pauligeom import configurations as cfg
from pauligeom import pauli_codec
from pauligeom import polar_geometry as pg
from pauligeom.errors import InternalConsistencyError, UsageError
from pauligeom.gf2_core import to_string
from pauligeom.pauli_codec import is_symmetric, join_words, point_to_word, word_to_point


@pytest.fixture(scope="module")
def partition(ostar):
    return pg.triple_partitions(ostar)[0]


def test_fig1_secants(ostar, ctx4):
    rep = cfg.fig_secants(ostar, ctx4)
    assert rep.roles() == {"ovoid": 9, "secant-point": 36}
    assert len(rep.lines) == 36
    classes = {p.role: {q.cls for q in rep.points if q.role == p.role}
               for p in rep.points}
    assert classes["ovoid"] == {"symmetric"}
    assert classes["secant-point"] == {"skew"}


def test_fig2_partition_axis_tetrad(ostar, quadric4, partition):
    rep = cfg.fig_conic_partition(ostar, partition, quadric4)
    roles = rep.roles()
    assert roles["conic-1"] == roles["conic-2"] == roles["conic-3"] == 3
    assert roles["nucleus"] == 3
    assert roles["tetrad-point"] == 9
    assert len(rep.lines) == 4
    skew = [p for p in rep.points if p.cls == "skew"]
    assert len(skew) == 12


def test_fig3_two_ovoids_on_conic(ostar, gens4):
    rep = cfg.fig_two_ovoids_conic(ostar, ostar.points[:3], gens4)
    roles = rep.roles()
    assert roles == {"shared-conic": 3, "ovoid-1": 6, "ovoid-2": 6, "nucleus": 1}
    symmetric = [p for p in rep.points if p.cls == "symmetric"]
    assert len(symmetric) == 15
    assert len(rep.lines) == 6
    nucleus_idx = next(
        i for i, p in enumerate(rep.points) if p.role == "nucleus"
    )
    assert all(nucleus_idx in line for line in rep.lines)


def test_fig4_six_ovoids(ostar, gens4, partition):
    rep = cfg.fig_six_ovoids(ostar, partition, gens4)
    roles = rep.roles()
    assert roles["axis-point"] == 3
    member_roles = [r for r in roles if r.startswith("triad1-")]
    assert sum(roles[r] for r in member_roles) == 27
    for r in member_roles:
        a, b = r.split("|")
        assert a.startswith("triad1-") and b.startswith("triad2-")
    assert len(rep.lines) == 1


def test_fig4_roles_name_the_first_triad_ovoid_of_each_point(ostar, gens4):
    # On every partition of O*, each of the 27 points is tagged with the
    # first ovoid of each triad that holds it.
    partitions = pg.triple_partitions(ostar)
    assert len(partitions) == 280
    for partition in partitions:
        fam = pg.six_ovoid_family(ostar, partition, gens4)
        expected = {}
        for p in sorted(fam.points):
            i = next(k for k, ov in enumerate(fam.triad_with_base, 1) if p in ov)
            j = next(k for k, ov in enumerate(fam.triad_other, 1) if p in ov)
            expected[point_to_word(p, 4)] = f"triad1-{i}|triad2-{j}"
        rep = cfg.fig_six_ovoids(ostar, partition, gens4)
        assert {e.word: e.role for e in rep.points if e.role != "axis-point"} == expected


def test_fig5_commutation(ostar, gens4, partition):
    rep = cfg.fig_commutation(ostar, partition, gens4)
    assert rep.annotations["symmetric_profile"] == "5,5,5,5,5,5"
    skew_profile = [int(x) for x in rep.annotations["skew_profile"].split(",")]
    assert set(skew_profile) <= {3, 7}
    assert len(rep.points) == 29


@pytest.mark.parametrize("center,profile", [("symmetric", (4,) * 6), ("skew", (5,) * 6)])
def test_fig5_profile_faults_name_the_center_and_family(center, profile, ostar, gens4,
                                                        partition, monkeypatch):
    rep = cfg.fig_commutation(ostar, partition, gens4)
    word = rep.annotations[f"{center}_center"]
    monkeypatch.setattr(pg, "commutation_profile", lambda w, family: profile)
    with pytest.raises(InternalConsistencyError) as exc:
        cfg.fig_commutation(ostar, partition, gens4)
    what = "is not all fives" if center == "symmetric" else "leaves {3, 7}"
    family = (f"ovoid {join_words(ostar.points)}"
              f" partition {'/'.join(join_words(t) for t in partition)}")
    assert str(exc.value) == f"{center} center {word} profile {profile} {what}: {family}"


def test_fig6_wrong_point_count_names_the_point_and_split(ostar, gens4, quadric4,
                                                          monkeypatch):
    # A mate with a tenth point: the report then holds 20 points.
    p = word_to_point("XXXX")
    split = cfg.standard_split(ostar, p)
    real = pg.point_partition_line
    extra = next(q for q in quadric4.points if q not in ostar)

    def padded(o, point, s, gens):
        extras, mate = real(o, point, s, gens)
        return extras, pg.Ovoid.from_points(mate.points + (extra,))

    monkeypatch.setattr(pg, "point_partition_line", padded)
    with pytest.raises(InternalConsistencyError) as exc:
        cfg.fig_two_ovoids_point(ostar, p, split, gens4)
    assert str(exc.value) == ("configuration is 20 points, not 19: point XXXX split"
                              f" {join_words(split[0])}/{join_words(split[1])}")


def test_fig6_two_ovoids_on_point(ostar, gens4):
    p = word_to_point("XXXX")
    rep = cfg.fig_two_ovoids_point(ostar, p, cfg.standard_split(ostar, p), gens4)
    assert len(rep.points) == 19
    assert all(q.cls == "symmetric" for q in rep.points)
    assert rep.annotations["extra_points"] in ("XXII IIXX", "IIXX XXII")
    assert len(rep.lines) == 9
    roles = rep.roles()
    assert roles["shared-point"] == 1
    assert roles["extra-point"] == 2
    assert roles["second-ovoid"] == 8


def test_fig7_pentad(ostar, quadric4):
    rep = cfg.fig_pentad(ostar, ostar.points[:5], quadric4)
    assert len(rep.points) == 11
    assert rep.roles() == {"vertex": 1, "pentad": 5, "quartet-extra": 5}
    assert len(rep.lines) == 5
    vertex_idx = next(i for i, p in enumerate(rep.points) if p.role == "vertex")
    assert all(vertex_idx in line for line in rep.lines)


def test_fig8_sextet(ostar, quadric4):
    triple = tuple(word_to_point(w) for w in ("ZIIX", "XZXI", "XXXX"))
    rep = cfg.fig_sextet(ostar, ostar.complement_in(triple), quadric4)
    assert rep.annotations["pairing_nucleus"] == "ZYII"
    roles = rep.roles()
    assert roles == {
        "double-six-ovoid": 6,
        "double-six-mate": 6,
        "core": 15,
        "pairing-nucleus": 1,
    }
    assert len(rep.lines) == 45 + 6


def test_fig9_nuclei_fan(ostar):
    p = word_to_point("XXXX")
    rep = cfg.fig_nuclei_fan(ostar, p, word_to_point("ZYII"))
    roles = rep.roles()
    assert roles["six-1"] == 6
    assert roles["six-2"] == 6
    assert roles["fan-nucleus"] == 15
    assert roles["gq-core"] == 15
    assert rep.annotations["concurrence"] == "YZXX"
    assert rep.annotations["gq_lines"] == "45"
    # the 28 nuclei: singled + 6 + 6 + 15, all skew
    nuclei_roles = ("singled-nucleus", "six-1", "six-2", "fan-nucleus")
    nuclei = [q for q in rep.points if q.role in nuclei_roles]
    assert len(nuclei) == 28
    assert all(q.cls == "skew" for q in nuclei)
    core = [q for q in rep.points if q.role == "gq-core"]
    assert all(q.cls == "symmetric" for q in core)


def test_fig9_fan_sweep_all_points_and_nuclei(ostar):
    # every point of the ovoid, every one of its 28 conic nuclei
    checked = 0
    for p in ostar.points:
        others = ostar.complement_in((p,))
        for a, b in itertools.combinations(others, 2):
            fan = cfg.nuclei_fan_structure(ostar, p, p ^ a ^ b)
            assert fan.gq_lines == 45
            assert len(fan.fan15) == 15
            checked += 1
    assert checked == 252


def test_fig9_quadrangle_is_the_sextet_section_moved_by_translations(ostar, ovoids, quadric4):
    # The fan of (p, p + a + b) is the elliptic section over the six points
    # off the conic {p, a, b}: its sextet moved by p + a, its mates by a and
    # its 15 core points by p.  Moved so, the 30 lines through a sextet
    # point still sum to 0 and the 15 core lines sum to p, and the 45 moved
    # lines make the fan's 27 points a GQ(2, 4) by the quadrangle check
    # itself.  On O* and on the first ovoid disjoint from it.
    disjoint = next(o for o in ovoids if not o.mask & ostar.mask)
    checked = 0
    for o in (ostar, disjoint):
        for sextet in itertools.combinations(o.points, 6):
            sec = pg.sextet_intersection(o, sextet, quadric4)
            conic = o.complement_in(sextet)
            for p in conic:
                a, b = (x for x in conic if x != p)
                fan = cfg.nuclei_fan_structure(o, p, p ^ a ^ b)
                assert fan.six_through_first == tuple(sorted(s ^ p ^ a for s in sec.sextet))
                assert fan.six_through_second == tuple(sorted(m ^ a for m in sec.mates))
                assert fan.cross15 == tuple(sorted(c ^ p for c in sec.core15))
                assert fan.concurrence == sec.pairing_nucleus ^ p
                shift = {**dict.fromkeys(sec.sextet, p ^ a), **dict.fromkeys(sec.mates, a),
                         **dict.fromkeys(sec.core15, p)}
                moved = [tuple(x ^ shift[x] for x in line) for line in sec.lines]
                sums = sorted((bool(set(line) & set(sec.sextet)), x ^ y ^ z)
                              for line, (x, y, z) in zip(sec.lines, moved))
                assert sums == [(False, p)] * 15 + [(True, 0)] * 30
                pg._check_generalized_quadrangle(
                    fan.six_through_first + fan.six_through_second + fan.cross15, moved)
                checked += 1
    assert checked == 504


def test_fig10_heptad_analogue(ostar):
    rep = cfg.heptad_analogue(
        ostar, word_to_point("ZZIZ"), word_to_point("IXXZ")
    )
    roles = rep.roles()
    assert roles == {
        "shared-ovoid-point": 2,
        "heptad-nucleus": 7,
        "heptad-line-point": 21,
        "triple-nucleus": 35,
    }
    assert len(rep.lines) == 21
    heptad = [q for q in rep.points if q.role == "heptad-nucleus"]
    thirds = [q for q in rep.points if q.role == "heptad-line-point"]
    triples = [q for q in rep.points if q.role == "triple-nucleus"]
    assert all(q.cls == "skew" for q in heptad + thirds)
    assert all(q.cls == "symmetric" for q in triples)


def test_heptad_analogue_all_pairs(ostar):
    for p1, p2 in itertools.combinations(ostar.points, 2):
        rep = cfg.heptad_analogue(ostar, p1, p2)
        assert rep.roles()["triple-nucleus"] == 35


def test_heptad_family_triangle(ostar, gens4):
    a, b, c = ostar.points[:3]
    rep = cfg.heptad_family(ostar, ((a, b), (b, c), (a, c)), gens4)
    assert rep.annotations["kind"] == "triangle"
    assert rep.annotations["heptads"] == "6"
    common = rep.annotations["common_point"]
    assert common == point_to_word(a ^ b ^ c, 4)


def test_heptad_family_quadrangle(ostar, gens4, quadric4):
    a, b, c, d = ostar.points[:4]
    rep = cfg.heptad_family(ostar, ((a, b), (b, c), (c, d), (d, a)), gens4)
    assert rep.annotations["kind"] == "quadrangle"
    assert len(rep.lines) == 4
    meet = pg.solid_extra_point(ostar, (a, b, c, d), quadric4)
    assert rep.annotations["concurrence"] == point_to_word(meet, 4)
    meet_idx = next(
        i for i, p in enumerate(rep.points) if p.role == "concurrence-point"
    )
    assert all(meet_idx in line for line in rep.lines)


def test_heptad_family_rejects_other_shapes(ostar, gens4):
    a, b, c, d = ostar.points[:4]
    with pytest.raises(UsageError):
        cfg.heptad_family(ostar, ((a, b), (b, c)), gens4)
    with pytest.raises(UsageError):
        cfg.heptad_family(ostar, ((a, b), (b, c), (c, d)), gens4)
    # Four vertices of degree 2, but two doubled edges instead of a 4-cycle.
    with pytest.raises(UsageError, match="neither a triangle nor a quadrangle"):
        cfg.heptad_family(ostar, ((a, b), (a, b), (c, d), (c, d)), gens4)


def test_split63(ovoids, ostar):
    p = word_to_point("XXXX")
    rep = cfg.sixty_three_split(ovoids, ostar, p)
    assert rep.annotations["ovoids_through_point"] == "64"
    assert rep.annotations["one_point_neighbours"] == "35"
    assert rep.annotations["conic_neighbours"] == "28"
    tags = [k for k in rep.annotations if k.startswith("ovoid_")]
    assert len(tags) == 64
    assert sum("[one-point]" in k for k in tags) == 35
    assert sum("[conic]" in k for k in tags) == 28
    assert sum("[reference]" in k for k in tags) == 1


def test_split63_reference_invariance(ovoids):
    p = word_to_point("XXXX")
    through = pg.ovoids_through(ovoids, p)
    assert len(through) == 64
    for ref in through:
        assert pg.ovoid_intersection_census(through, ref, p) == (35, 28)


def test_split63_wrong_ovoid_count_names_the_point(ovoids, ostar, monkeypatch):
    real = pg.ovoids_through
    monkeypatch.setattr(pg, "ovoids_through", lambda all_ovoids, p: real(all_ovoids, p)[1:])
    with pytest.raises(InternalConsistencyError) as exc:
        cfg.sixty_three_split(ovoids, ostar, word_to_point("XXXX"))
    assert str(exc.value) == "point is on 63 ovoids, not 64: point XXXX"


def test_split63_bad_intersection_names_both_ovoids(ovoids, ostar, monkeypatch):
    # Plant, among the 64 through XXXX, a nine-point set that meets O* in
    # XXXX and one more point: a size the census must reject.
    p = word_to_point("XXXX")
    through = pg.ovoids_through(ovoids, p)
    k, lone = next((k, o) for k, o in enumerate(through) if (o.mask & ostar.mask) == 1 << p)
    q = next(x for x in ostar.points if x != p)
    planted = pg.Ovoid.from_points([x for x in lone.points if x != p][1:] + [p, q])
    monkeypatch.setattr(pg, "ovoids_through",
                        lambda all_ovoids, point: through[:k] + (planted,) + through[k + 1:])
    with pytest.raises(InternalConsistencyError) as exc:
        cfg.sixty_three_split(ovoids, ostar, p)
    assert str(exc.value) == (
        "intersection of size 2 through point XXXX: "
        f"ovoid {join_words(ostar.points)} and ovoid {join_words(planted.points)}")


def test_report_json_shape(ostar, ctx4):
    rep = cfg.fig_secants(ostar, ctx4)
    data = json.loads(rep.to_json())
    assert set(data) == {"name", "points", "lines", "annotations"}
    assert data["name"] == "fig1"
    assert set(data["points"][0]) == {"coords", "word", "class", "role"}
    assert all(len(line) == 3 for line in data["lines"])


def test_report_dot_output(ostar, ctx4):
    rep = cfg.fig_secants(ostar, ctx4)
    dot = rep.to_dot()
    assert dot.startswith('graph "fig1"')
    assert dot.count("shape=circle") == 9
    assert dot.count("shape=hexagon") == 36
    nodes = cfg.fig_secants(ostar, ctx4).to_dot(line_style="node")
    assert nodes.count("shape=point") == 36
    with pytest.raises(UsageError):
        rep.to_dot(line_style="wavy")


def test_report_verify_rejects_fake_line(ostar, ctx4):
    rep = cfg.fig_secants(ostar, ctx4)
    rep.lines.append((0, 1, 2))  # three ovoid points are never collinear
    words = join_words(ostar.points[:3])
    with pytest.raises(InternalConsistencyError,
                       match=f"^listed line {words} does not sum to zero$"):
        rep.verify()


def test_report_verify_checks_class_tags_against_the_quadric(ostar, ctx4, monkeypatch):
    # A word-level symmetry test that calls XXXX skew: the tag it writes
    # disagrees with the quadric membership of XXXX's coordinates.
    real = pauli_codec.is_symmetric
    monkeypatch.setattr(pauli_codec, "is_symmetric", lambda word: word != "XXXX" and real(word))
    cfg._point_fields.cache_clear()
    try:
        with pytest.raises(InternalConsistencyError, match="^class tag of XXXX is wrong$"):
            cfg.fig_secants(ostar, ctx4)
    finally:
        cfg._point_fields.cache_clear()


def _hand_built(*points):
    """A report of (coords, word, class) entries, each with role "r"."""
    rep = cfg.ConfigReport("hand-built")
    rep.points.extend(cfg.PointEntry(*p, "r") for p in points)
    return rep


def test_report_verify_rejects_the_zero_vector():
    rep = _hand_built(("00000001", "IIIX", "symmetric"), ("00000000", "IIII", "symmetric"))
    with pytest.raises(InternalConsistencyError, match="^zero vector listed as a point$"):
        rep.verify()


def test_report_verify_reads_the_class_from_the_coordinates_not_the_word():
    # IIIY's coordinates under the symmetric word IIIX: the word agrees
    # with the tag, the coordinates do not.
    coords = to_string(word_to_point("IIIY"), 8)
    rep = _hand_built((coords, "IIIX", "symmetric"))
    with pytest.raises(InternalConsistencyError, match="^class tag of IIIX is wrong$"):
        rep.verify()
    assert _hand_built((coords, "IIIY", "skew")).verify().points[0].cls == "skew"


def test_report_verify_takes_the_quadric_of_each_coordinate_length():
    # 001001 is the skew IIY of three qubits; padded to eight bits it is
    # the symmetric XIIX of four.
    words = [point_to_word(v, 3) for v in range(1, 64)]
    rank3 = [(to_string(v, 6), w, "symmetric" if is_symmetric(w) else "skew")
             for v, w in enumerate(words, 1)]
    rep = _hand_built(*rank3, ("00001001", "XIIX", "symmetric"))
    assert rep.verify() is rep
    assert ("001001", "IIY", "skew") in rank3
    with pytest.raises(InternalConsistencyError, match="^class tag of XIIX is wrong$"):
        _hand_built(("001001", "IIY", "skew"), ("00001001", "XIIX", "skew")).verify()


def _all_reports(o, gens, ovoids):
    """One report from each of the twelve builders, on default choices."""
    ctx, quadric = gens.context, gens.quadric
    part = pg.triple_partitions(o)[0]
    p = o.points[0]
    a, b = o.points[1:3]
    return [
        cfg.fig_secants(o, ctx),
        cfg.fig_conic_partition(o, part, quadric),
        cfg.fig_two_ovoids_conic(o, o.points[:3], gens),
        cfg.fig_six_ovoids(o, part, gens),
        cfg.fig_commutation(o, part, gens),
        cfg.fig_two_ovoids_point(o, p, pg.rest_splits(o, p)[0], gens),
        cfg.fig_pentad(o, o.points[:5], quadric),
        cfg.fig_sextet(o, o.points[:6], quadric),
        cfg.fig_nuclei_fan(o, p, p ^ a ^ b),
        cfg.heptad_analogue(o, p, a),
        cfg.figure("heptad-family", o, gens, kind="quadrangle"),
        cfg.sixty_three_split(ovoids, o, p),
    ]


def test_to_json_is_json_dumps_layout_for_every_builder(ostar, gens4, ovoids):
    # O* and 20 ovoids spread over the canonical order of all 960.
    for o in (ostar, *ovoids[::48]):
        reports = _all_reports(o, gens4, ovoids)
        assert len({r.name for r in reports}) == 12
        for rep in reports:
            assert rep.to_json() == json.dumps(rep.to_json_dict(), indent=2)
    triangle = cfg.figure("heptad-family", ostar, gens4)
    assert triangle.to_json() == json.dumps(triangle.to_json_dict(), indent=2)


def test_reports_do_not_share_their_containers():
    a, b = cfg.ConfigReport("x"), cfg.ConfigReport("x")
    a.points.append(cfg.PointEntry("00000001", "IIIX", "symmetric", "r"))
    a.lines.append((0, 0, 0))
    a.annotations["k"] = "v"
    assert (b.points, b.lines, b.annotations) == ([], [], {})
    assert a.points is not b.points and a.lines is not b.lines
    assert a.annotations is not b.annotations


def test_to_json_edge_cases_match_json_dumps():
    empty = cfg.ConfigReport("x")
    assert empty.to_json() == json.dumps(empty.to_json_dict(), indent=2)
    assert '"points": [],' in empty.to_json()
    assert '"annotations": {}' in empty.to_json()
    odd = 'q"uote \\back\nline caf\u00e9 \u2211 \U0001d11e \x00\t'
    rep = cfg.ConfigReport(odd)
    rep.points.append(cfg.PointEntry("00000001", "IIIX", "symmetric", odd))
    rep.annotations[odd] = odd
    rep.annotations[""] = ""
    assert rep.to_json() == json.dumps(rep.to_json_dict(), indent=2)
    assert json.loads(rep.to_json())["annotations"][odd] == odd
    rep.lines.append((0, 0, 0))
    assert rep.to_json() == json.dumps(rep.to_json_dict(), indent=2)



def test_report_verify_checks_every_entry_of_repeated_coords():
    # XXXX's coordinates listed twice, tagged right and then wrong: the
    # class read off the coordinates for the first entry still rejects the
    # second, on a cold and on a warm memo.
    coords = to_string(word_to_point("XXXX"), 8)
    right, wrong = (coords, "XXXX", "symmetric"), (coords, "XXXX", "skew")
    assert _hand_built(right).verify().points[0].cls == "symmetric"
    for entries in ((right, wrong), (wrong, right)):
        for _ in range(2):
            with pytest.raises(InternalConsistencyError,
                               match="^class tag of XXXX is wrong$"):
                _hand_built(*entries).verify()


def test_to_json_keeps_entries_with_equal_coords_apart():
    # One coordinate string under two words and two classes: each entry
    # writes its own word and class, also once the heads are memoized.
    coords = to_string(word_to_point("XXXX"), 8)
    rep = _hand_built((coords, "XXXX", "symmetric"), (coords, "IIIY", "symmetric"),
                      (coords, "XXXX", "skew"), (coords, "XXXX", "symmetric"))
    rep.points[-1].role = "s"
    for _ in range(2):
        assert rep.to_json() == json.dumps(rep.to_json_dict(), indent=2)
    assert [(p["word"], p["class"], p["role"]) for p in json.loads(rep.to_json())["points"]] == [
        ("XXXX", "symmetric", "r"), ("IIIY", "symmetric", "r"), ("XXXX", "skew", "r"),
        ("XXXX", "symmetric", "s")]


def test_import_fills_no_memo():
    # The report memos fill as reports are built, not at import: a cold
    # `config` command pays only for the points of its one report.
    code = ("import sys, pauligeom.configurations as cfg\n"
            "print(*sorted(k for k, f in vars(cfg).items() if hasattr(f, 'cache_info')))\n"
            "print(*sorted(f'{m.__name__}.{k}' for m in list(sys.modules.values())\n"
            "              if m.__name__.startswith('pauligeom') for k, f in vars(m).items()\n"
            "              if hasattr(f, 'cache_info') and f.cache_info().currsize))")
    env = dict(os.environ, PYTHONPATH=str(Path(cfg.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    memos, filled = done.stdout.split("\n")[:2]
    assert {"_coords_point", "_json_head", "_point_fields"} <= set(memos.split())
    assert filled == ""


# --- the figure table ---------------------------------------------------

def test_figure_names_and_choices():
    assert list(cfg.FIGURES) == [f"fig{i}" for i in range(1, 12)] + [
        "heptad-analogue", "heptad-family", "split63"]
    takes = {name: tuple(choices) for name, (_, choices) in cfg.FIGURES.items()}
    assert takes == {
        "fig1": (), "fig2": ("partition",), "fig3": ("triple",), "fig4": ("partition",),
        "fig5": ("partition", "point", "nucleus"), "fig6": ("point", "split"),
        "fig7": ("pentad",), "fig8": ("sextet",), "fig9": ("point", "nucleus"),
        "fig10": ("pair",), "fig11": ("pair",), "heptad-analogue": ("pair",),
        "heptad-family": ("kind", "pairs"), "split63": ("point",),
    }


def test_figure_fills_the_reference_choices(ostar, gens4):
    # Each default equals the figure built with its reference values spelled out.
    xxxx, zyii = word_to_point("XXXX"), word_to_point("ZYII")
    pair = (word_to_point("ZZIZ"), word_to_point("IXXZ"))
    conic = tuple(map(word_to_point, ("ZIIX", "XZXI", "XXXX")))
    a, b, c, d = ostar.points[:4]
    cases = [
        ("fig2", {}, dict(partition=pg.triple_partitions(ostar)[0])),
        ("fig3", {}, dict(triple=(a, b, c))),
        ("fig6", {}, dict(point=xxxx, split=cfg.standard_split(ostar, xxxx))),
        ("fig7", {}, dict(pentad=ostar.points[:5])),
        ("fig8", {}, dict(sextet=ostar.complement_in(conic))),
        ("fig9", {}, dict(point=xxxx, nucleus=zyii)),
        ("fig10", {}, dict(pair=pair)),
        ("split63", {}, dict(point=xxxx)),
        ("heptad-family", {}, dict(kind="triangle", pairs=((a, b), (b, c), (a, c)))),
        ("heptad-family", dict(kind="quadrangle"),
         dict(kind="quadrangle", pairs=((a, b), (b, c), (c, d), (d, a)))),
    ]
    for name, given, explicit in cases:
        assert (cfg.figure(name, ostar, gens4, **given).to_json()
                == cfg.figure(name, ostar, gens4, **explicit).to_json())


def test_figure_aliases_differ_only_in_name(ostar, gens4):
    reports = [cfg.figure(n, ostar, gens4) for n in ("fig10", "fig11", "heptad-analogue")]
    assert [r.name for r in reports] == ["fig10", "fig11", "heptad-analogue"]
    assert len({r.to_json().split("\n", 2)[2] for r in reports}) == 1


def test_figure_reference_choices_fall_back_off_the_reference_ovoid(ovoids, gens4):
    # An ovoid through neither the reference pair nor the reference conic
    # (so not through XXXX either) takes its own first points instead.
    conic = tuple(map(word_to_point, ("ZIIX", "XZXI", "XXXX")))
    o = next(o for o in ovoids if not any(p in o for p in conic + cfg.REFERENCE_PAIR))
    fig10 = cfg.figure("fig10", o, gens4)
    assert fig10.annotations["shared_points"] == join_words(o.points[:2]).replace(",", " ")
    assert (cfg.figure("fig8", o, gens4).to_json()
            == cfg.fig_sextet(o, o.points[:6], gens4.quadric).to_json())
    p, a, b = o.points[:3]
    for name, explicit in [("fig6", dict(point=p, split=cfg.standard_split(o, p))),
                           ("fig9", dict(point=p, nucleus=p ^ a ^ b)),
                           ("split63", dict(point=p))]:
        assert (cfg.figure(name, o, gens4).to_json()
                == cfg.figure(name, o, gens4, **explicit).to_json())


def test_fig9_nucleus_falls_back_when_zyii_is_no_nucleus_on_the_point(ovoids, gens4):
    xxxx, zyii = word_to_point("XXXX"), word_to_point("ZYII")

    def nuclei(o):
        rest = o.complement_in((xxxx,))
        return [xxxx ^ a ^ b for a, b in itertools.combinations(rest, 2)]

    through = pg.ovoids_through(ovoids, xxxx)
    with_zyii = [o for o in through if zyii in nuclei(o)]
    assert 0 < len(with_zyii) < len(through)
    o = next(o for o in through if zyii not in nuclei(o))
    assert (cfg.figure("fig9", o, gens4).annotations["singled_nucleus"]
            == point_to_word(nuclei(o)[0], 4))
    assert (cfg.figure("fig9", with_zyii[0], gens4).annotations["singled_nucleus"]
            == "ZYII")


def test_nuclei_heptad(ostar):
    p1, p2 = ostar.points[:2]
    heptad = cfg.nuclei_heptad(ostar, p1, p2)
    assert heptad == tuple(sorted(p1 ^ p2 ^ x for x in ostar.points[2:]))
    assert len(set(heptad)) == 7


# --- failed invariants name their object in Pauli words -----------------

def test_nuclei_fan_failure_names_the_fan(ostar, monkeypatch):
    # Without its 15 core lines the section under the fan has only the 30
    # lines through its double six: the section's fault, named by the fan.
    p, nucleus = word_to_point("XXXX"), word_to_point("ZYII")
    sextet = ostar.complement_in(word_to_point(w) for w in ("ZIIX", "XZXI", "XXXX"))
    double_six = set(sextet) | {x ^ nucleus for x in sextet}
    real = pg._mask_lines
    monkeypatch.setattr(pg, "_mask_lines",
                        lambda pts, mask: [ln for ln in real(pts, mask) if double_six & set(ln)])
    with pytest.raises(InternalConsistencyError) as exc:
        cfg.nuclei_fan_structure(ostar, p, nucleus)
    assert str(exc.value) == (f"sextet section has 30 lines: sextet {join_words(sextet)}: "
                              f"ovoid {join_words(ostar.points)} point XXXX nucleus ZYII")


def test_section_fan_checks_that_the_move_is_a_bijection(ostar, quadric4):
    # A section whose first core point repeats its second: every moved point
    # is on the quadric, but the 27 moved points are only 26.
    sextet, (p, a, b) = ostar.points[:6], ostar.points[6:]
    s = pg.sextet_intersection(ostar, sextet, quadric4)
    planted = pg.SextetSection(s.points, s.lines, s.sextet, s.mates, s.core15[1:2] + s.core15[1:],
                               s.pairing_nucleus, s.pairing_lines)
    with pytest.raises(InternalConsistencyError) as exc:
        cfg.section_fan(ostar, planted, p)
    assert str(exc.value) == (f"the 27 moved points are 26 points: ovoid {join_words(ostar.points)}"
                              f" point {point_to_word(p, 4)} nucleus {point_to_word(p ^ a ^ b, 4)}")
    with pytest.raises(UsageError):
        cfg.section_fan(ostar, s, sextet[0])


def test_heptad_analogue_failure_names_the_pair(ostar, monkeypatch):
    # A quadric that holds every point: the nuclei are not skew.
    class EverythingOnTheQuadric:
        def contains(self, v):
            return True

    monkeypatch.setattr(pg, "standard_quadric", lambda n: EverythingOnTheQuadric())
    p1, p2 = word_to_point("ZZIZ"), word_to_point("IXXZ")
    heptad = sorted(p1 ^ p2 ^ x for x in ostar.points if x not in (p1, p2))
    with pytest.raises(InternalConsistencyError) as exc:
        cfg.heptad_analogue(ostar, p1, p2)
    assert str(exc.value) == (f"conic nuclei {join_words(heptad)} are not a skew heptad: "
                              f"ovoid {join_words(ostar.points)} pair ZZIZ,IXXZ")


def test_heptad_analogue_counts_its_points(ostar, ovoids, gens4, monkeypatch):
    # The nuclei heptad of another ovoid and pair, whose triple nuclei hold
    # ZZIZ: it passes every heptad check, but its triple nuclei merge with
    # the shared points.
    zziz = word_to_point("ZZIZ")
    heptads = (cfg.nuclei_heptad(o, *pr) for o in ovoids
               for pr in itertools.combinations(o.points, 2))
    stranger = next(h for h in heptads
                    if zziz in {x ^ y ^ z for x, y, z in itertools.combinations(h, 3)})
    heptad = cfg.nuclei_heptad
    monkeypatch.setattr(cfg, "nuclei_heptad", lambda o, p1, p2: stranger
                        if {p1, p2} == set(cfg.REFERENCE_PAIR) else heptad(o, p1, p2))
    with pytest.raises(InternalConsistencyError) as exc:
        cfg.figure("fig10", ostar, gens4)
    assert str(exc.value) == ("configuration is 63 points, not 65: "
                              f"ovoid {join_words(ostar.points)} pair ZZIZ,IXXZ")


# O* with its third point replaced by the sum of the first two: that
# collinear triple's nucleus is the zero vector, which has no word.
_COLLINEAR = "XXXX,IXXZ,XIIY,XZXI,IZYY,ZIIX,ZXZZ,ZZIZ,YYZX"


@pytest.mark.parametrize("name", ["fig2", "fig4", "fig5", "heptad-analogue"])
def test_collinear_triple_is_named_in_words(name, gens4):
    x = pg.Ovoid.from_points(word_to_point(w) for w in _COLLINEAR.split(","))
    a, b, c = x.points[:3]
    assert a ^ b == c
    choices = {"pair": (a, b)} if name == "heptad-analogue" else {}
    with pytest.raises(InternalConsistencyError) as exc:
        cfg.figure(name, x, gens4, **choices)
    message = str(exc.value)
    assert message.startswith("collinear triple has no nucleus: ")
    assert f" triple {join_words((a, b, c))}" in message


@pytest.mark.parametrize("name", ["fig2", "fig4", "fig5"])
def test_collinear_partition_fault_names_the_ovoid_and_partition(name, gens4):
    x = pg.Ovoid.from_points(word_to_point(w) for w in _COLLINEAR.split(","))
    part = pg.triple_partitions(x)[0]
    with pytest.raises(InternalConsistencyError) as exc:
        cfg.figure(name, x, gens4)
    assert str(exc.value).endswith(
        f": ovoid {join_words(x.points)} partition {'/'.join(map(join_words, part))}")


def test_heptad_triangle_failure_names_the_triangle(ostar, ovoids, gens4, monkeypatch):
    # A second ovoid off the triangle: its heptads miss the triangle nucleus.
    stranger = next(o for o in ovoids if not o.mask & ostar.mask)
    monkeypatch.setattr(pg, "second_ovoid_on_conic", lambda o, triple, gens: stranger)
    a, b, c = ostar.points[:3]
    with pytest.raises(InternalConsistencyError) as exc:
        cfg.figure("heptad-family", ostar, gens4)
    base = cfg.nuclei_heptad(ostar, a, b)
    mate = cfg.nuclei_heptad(stranger, a, b)
    meet = sorted(set(base) & set(mate))
    assert str(exc.value) == (
        f"heptads {join_words(base)} and {join_words(mate)} meet in [{join_words(meet)}], "
        f"not in the nucleus {point_to_word(a ^ b ^ c, 4)}: "
        f"ovoid {join_words(ostar.points)} triangle {join_words((a, b, c))}")


def test_heptad_triangle_checks_every_base_mate_pair(ostar, gens4, monkeypatch):
    # The mate heptad of the pair (a, c) trades one of its points for one of
    # the base heptad of (a, b).  All six heptads still meet only in the
    # nucleus, and so do any two base or any two mate heptads.
    a, b, c = ostar.points[:3]
    nucleus = a ^ b ^ c
    other = pg.second_ovoid_on_conic(ostar, (a, b, c), gens4)
    base_ab = cfg.nuclei_heptad(ostar, a, b)
    mate_ac = cfg.nuclei_heptad(other, a, c)
    stray = next(v for v in base_ab if v != nucleus)
    own = next(v for v in mate_ac if v != nucleus)
    planted_ac = tuple(sorted(set(mate_ac) - {own} | {stray}))
    heptad = cfg.nuclei_heptad
    monkeypatch.setattr(cfg, "nuclei_heptad", lambda o, p1, p2: planted_ac
                        if o == other and (p1, p2) == (a, c) else heptad(o, p1, p2))
    with pytest.raises(InternalConsistencyError) as exc:
        cfg.figure("heptad-family", ostar, gens4)
    assert str(exc.value) == (
        f"heptads {join_words(base_ab)} and {join_words(planted_ac)} meet in "
        f"[{join_words(sorted((nucleus, stray)))}], not in the nucleus "
        f"{point_to_word(nucleus, 4)}: ovoid {join_words(ostar.points)} "
        f"triangle {join_words((a, b, c))}")


def test_heptad_quadrangle_failure_names_the_quadrangle(ostar, gens4, monkeypatch):
    # A wrong concurrence point: the pairing lines through it miss the vertices.
    wrong = word_to_point("IIIY")
    monkeypatch.setattr(pg, "solid_extra_point", lambda o, quad, quadric: wrong)
    a, b, c, d = ostar.points[:4]
    pairs = ((a, b), (b, c), (c, d), (d, a))
    with pytest.raises(InternalConsistencyError) as exc:
        cfg.heptad_family(ostar, pairs, gens4)
    message = str(exc.value)
    assert message.startswith("the line of ")
    assert message.endswith(
        " and IIIY misses the vertices: "
        f"ovoid {join_words(ostar.points)} quadrangle "
        + "/".join(join_words(sorted(pr)) for pr in pairs))


@pytest.mark.parametrize("kind,shape,count", [("quadrangle", "triangle", 3),
                                              ("triangle", "quadrangle", 4)])
def test_heptad_family_kind_must_match_the_pairs(kind, shape, count, ostar, gens4):
    # A given kind that the pairs contradict is a usage error, not a
    # figure of the other shape.
    cycle = ostar.points[:count]
    pairs = [(cycle[i], cycle[(i + 1) % count]) for i in range(count)]
    with pytest.raises(UsageError, match=f"^the pairs are a {shape}, not a {kind}$"):
        cfg.figure("heptad-family", ostar, gens4, kind=kind, pairs=pairs)
    assert cfg.figure("heptad-family", ostar, gens4, kind=shape,
                      pairs=pairs).annotations["kind"] == shape
