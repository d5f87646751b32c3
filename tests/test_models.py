import math
from dataclasses import replace

import numpy as np
import pytest

from rcm_lab.connfn import (from_callable, integral_constant, lognormal,
                            theta_tail, unit_disk)
from rcm_lab.models import (MODELS, InvalidParamsError, ModelSpec, derive,
                            frame_region, realize)


def _disk_spec(model, rho=1000.0, b=0.0):
    return ModelSpec(model=model, rho=rho, b=b, g=unit_disk(1.0))


def test_scaling_radius_formula():
    d = derive(_disk_spec("square"))
    want = math.sqrt((math.log(1000.0) + 0.0) / (math.pi * 1000.0))
    assert d.r_rho == pytest.approx(want, rel=1e-14)
    assert d.lam == pytest.approx((math.log(1000.0)) / math.pi, rel=1e-14)


def test_frame_geometry_relations():
    for rho, b in ((100.0, 0.0), (1000.0, 1.0), (5e4, 0.5)):
        dd = derive(_disk_spec("dense", rho, b))
        de = derive(_disk_spec("extended", rho, b))
        ds = derive(_disk_spec("square", rho, b))
        dt = derive(_disk_spec("torus", rho, b))
        assert dd.side == 1.0
        assert de.side == pytest.approx(math.sqrt(rho), rel=1e-13)
        assert ds.side == pytest.approx(1.0 / ds.r_rho, rel=1e-13)
        assert dt.side == ds.side
        # every frame places the same expected number of points
        for d in (dd, de, ds, dt):
            assert d.expected_nodes == rho
            assert d.density * d.side ** 2 == pytest.approx(rho, rel=1e-12)
        assert frame_region(_disk_spec("torus", rho, b)).kind == "torus"
        assert frame_region(_disk_spec("square", rho, b)).kind == "square"


def test_frame_connection_rescaling():
    # dense and extended keep the square frame's g: their positions, not
    # g, carry the length scale
    for model in ("dense", "extended", "square"):
        spec = _disk_spec(model)
        assert realize(spec, 0).g is spec.g


def test_window_uses_unscaled_g():
    # the window frame has the square's length scale: it samples a larger
    # square at the square's intensity and links pairs with g itself
    spec = ModelSpec(model="window", rho=300.0, b=0.0,
                     g=lognormal(sigma=1.0, eta=2.0))
    assert derive(spec.with_constant()).conn_scale == 1.0
    assert realize(spec, 0).g is spec.g


def test_frame_region_kinds():
    assert frame_region(_disk_spec("square")).kind == "square"
    assert frame_region(_disk_spec("torus")).kind == "torus"
    assert frame_region(_disk_spec("window")).kind == "square"


@pytest.mark.parametrize("model", ["dense", "torus", "window"])
def test_realize_derives_its_frame_once(monkeypatch, model):
    # the frame's region and g both come from one derive
    import rcm_lab.models as models

    calls = []

    def counted(spec):
        calls.append(spec.model)
        return derive(spec)

    monkeypatch.setattr(models, "derive", counted)
    graph = realize(_disk_spec(model, rho=100.0), 4)
    assert calls == [model]
    assert graph.points.region == frame_region(_disk_spec(model, rho=100.0))


def test_invalid_params():
    with pytest.raises(InvalidParamsError):
        ModelSpec(model="cube", rho=10.0, b=0.0, g=unit_disk(1.0))
    with pytest.raises(InvalidParamsError):
        ModelSpec(model="square", rho=-5.0, b=0.0, g=unit_disk(1.0))
    with pytest.raises(InvalidParamsError):
        derive(ModelSpec(model="square", rho=2.0, b=-1.0,
                         g=unit_disk(1.0)))  # log(2) - 1 < 0
    with pytest.raises(InvalidParamsError):
        derive(ModelSpec(model="window", rho=100.0, b=0.0, g=unit_disk(1.0),
                         margin=-1.0))


def test_margin_is_keyword_only():
    # a fifth positional argument has no field to go to
    with pytest.raises(TypeError):
        ModelSpec("window", 100.0, 0.0, unit_disk(1.0), math.pi)


def test_with_constant_caches():
    spec = ModelSpec(model="square", rho=100.0, b=0.0, g=unit_disk(2.0))
    assert spec.with_constant() is spec
    assert integral_constant(spec.g) == pytest.approx(4.0 * math.pi,
                                                      rel=1e-10)


def test_derive_reads_c_from_the_current_g():
    # C belongs to g: a spec whose g is replaced derives the frame of the
    # new g, even after with_constant() computed the old g's C
    spec = replace(_disk_spec("square").with_constant(), g=unit_disk(2.0))
    fresh = ModelSpec(model="square", rho=1000.0, b=0.0, g=unit_disk(2.0))
    assert derive(spec) == derive(fresh)
    assert derive(spec).lam == pytest.approx(
        math.log(1000.0) / (4.0 * math.pi), rel=1e-12)


def test_window_margin_default_covers_connection_range():
    spec = ModelSpec(model="window", rho=400.0, b=0.0, g=unit_disk(1.0))
    d = derive(spec)
    assert d.margin >= 1.0
    assert d.side == pytest.approx(d.core_side + 2.0 * d.margin, rel=1e-12)
    assert d.expected_nodes == pytest.approx(d.density * d.side ** 2, rel=1e-12)
    # margin override wins
    spec2 = ModelSpec(model="window", rho=400.0, b=0.0, g=unit_disk(1.0),
                      margin=3.5)
    assert derive(spec2).margin == 3.5


def test_realize_returns_graph_in_frame():
    spec = _disk_spec("torus", rho=200.0)
    graph = realize(spec, seed=4)
    d = derive(spec)
    assert graph.points.region.kind == "torus"
    assert graph.points.region.side == pytest.approx(d.side)
    assert graph.points.region.contains(graph.points.positions).all()
    with pytest.raises(ValueError):
        realize(spec, seed=4, mode="sloppy")


def test_all_models_realize():
    for model in MODELS:
        graph = realize(_disk_spec(model, rho=80.0), seed=1)
        assert graph.edges.ndim == 2 and graph.edges.shape[1] == 2


def test_rescale_instance_between_frames():
    # dense and extended draws at one seed are the square's instance: the
    # positions are the square's times conn_scale, to the bit, and lie in
    # the frame's region, and the edges are the square's
    cases = [(unit_disk(1.0), ("exact", "cells")),
             (lognormal(sigma=0.25, eta=4.0), ("exact", "cells")),
             (theta_tail(0.5), ("exact", "cells")),
             (from_callable(lambda x: np.exp(-np.asarray(x) ** 2),
                            name="gauss"), ("exact",))]
    for g, modes in cases:
        for mode in modes:
            for seed in (9, 10):
                sq = realize(ModelSpec("square", 150.0, 0.0, g), seed, mode)
                assert sq.edges.shape[0] > 100
                for model in ("dense", "extended"):
                    spec = ModelSpec(model, 150.0, 0.0, g)
                    graph = realize(spec, seed, mode)
                    pos = graph.points.positions
                    assert np.array_equal(
                        pos, sq.points.positions * derive(spec).conn_scale)
                    assert graph.points.region.contains(pos).all()
                    assert np.array_equal(graph.edges, sq.edges)
