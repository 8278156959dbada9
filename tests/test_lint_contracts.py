"""Tests for the whole-program contract rules (X1-X3) and their shared
symbol model: model construction, the fixture triples, the one-build-per-run
caching contract, and a drill that plants a write-only counter into a copy
of a real module in each counter package to prove X1 catches the bug class
it exists for.
"""

import ast
import textwrap
from pathlib import Path

import pytest

from repro.lint import LintEngine, all_rules
from repro.lint import contracts
from repro.lint.contracts import build_symbol_model
from repro.lint.engine import Module

from test_lint import rules_of, run_fixture

REPO_ROOT = Path(__file__).resolve().parents[1]


def module_of(source, rel="repro/core/mod.py"):
    source = textwrap.dedent(source)
    return Module(path=Path(rel), rel=rel, source=source,
                  tree=ast.parse(source))


class TestSymbolModel:
    def test_config_class_fields_and_members(self):
        model = build_symbol_model([module_of("""
            from dataclasses import dataclass
            from typing import Optional


            @dataclass
            class CacheConfig:
                num_ways: int = 8

                def capacity(self):
                    return self.num_ways


            @dataclass
            class SimConfig:
                cache: Optional[CacheConfig] = None
                label: "str" = ""
        """)])
        cache = model.config_classes["CacheConfig"]
        assert cache.fields["num_ways"] == "int"
        assert {"num_ways", "capacity"} <= cache.members
        sim = model.config_classes["SimConfig"]
        # Optional[...] and string annotations both resolve to the type name.
        assert sim.fields["cache"] == "CacheConfig"
        assert sim.fields["label"] == "str"

    def test_plain_class_is_not_a_config(self):
        model = build_symbol_model([module_of("""
            class RuntimeConfig:
                pass
        """)])
        assert model.config_classes == {}

    def test_surface_keys_prefixes_and_open(self):
        model = build_symbol_model([module_of("""
            class A:
                def supply_counters(self):
                    counters = {"hits": 1}
                    counters["misses"] = 2
                    for kind in self.kinds:
                        counters[f"fill_{kind}"] = 3
                    return counters


            class B:
                def supply_counters(self):
                    counters = {}
                    counters.update(self.snapshot())
                    return counters
        """)])
        a, b = model.surfaces
        assert set(a.static_keys) == {"hits", "misses"}
        assert a.prefixes == {"fill_"}
        assert a.covers("fill_decoder") and not a.covers("spills")
        assert not a.open_surface
        assert b.open_surface

    def test_event_model_and_category_table(self):
        model = build_symbol_model([module_of("""
            import enum


            class EventKind(enum.Enum):
                HIT = "hit"
                MISS = "miss"


            KIND_CATEGORY = {
                EventKind.HIT: "cache",
            }


            def publish(hub):
                hub.emit(EventKind.HIT, 1)
                hub.emit(kind, 2)
        """)])
        assert set(model.events.members) == {"HIT", "MISS"}
        assert set(model.events.category_members) == {"HIT"}
        literal, variable = model.emit_sites
        assert literal.member == "HIT" and literal.resolvable
        assert variable.member is None and not variable.resolvable

    def test_increments_and_attribute_reads(self):
        model = build_symbol_model([module_of("""
            class Sim:
                def tick(self):
                    self.cycles += 1
                    self.phantom += 1
                    return self.cycles
        """)])
        assert {i.attr for i in model.increments} == {"cycles", "phantom"}
        assert "cycles" in model.attribute_reads
        assert "phantom" not in model.attribute_reads


class TestX1CounterContract:
    def test_violation(self):
        report = run_fixture("x1_violation")
        assert rules_of(report) == ["X1", "X1"]
        messages = " | ".join(f.message for f in report.findings)
        assert "_phantom" in messages            # write-only counter
        assert "'misses'" in messages            # surface parity hole

    def test_suppressed(self):
        report = run_fixture("x1_suppressed")
        assert report.findings == []
        assert report.suppressed == 2

    def test_fixed(self):
        report = run_fixture("x1_fixed")
        assert report.findings == []


class TestX2TelemetryTaxonomy:
    def test_violation(self):
        report = run_fixture("x2_violation")
        assert rules_of(report) == ["X2", "X2", "X2"]
        messages = " | ".join(f.message for f in report.findings)
        assert "BOGUS" in messages               # undeclared emit
        assert "UNUSED is declared" in messages  # never emitted
        assert "KIND_CATEGORY" in messages       # category gap

    def test_suppressed(self):
        """The declaration-line pragma waives both member findings; the
        emit-site pragma waives the off-taxonomy emit."""
        report = run_fixture("x2_suppressed")
        assert report.findings == []
        assert report.suppressed == 3

    def test_fixed(self):
        report = run_fixture("x2_fixed")
        assert report.findings == []


class TestX3ConfigFields:
    def test_violation(self):
        report = run_fixture("x3_violation")
        assert rules_of(report) == ["X3", "X3"]
        messages = " | ".join(f.message for f in report.findings)
        assert ".num_sets" in messages           # through self.config.cache
        assert ".assoc" in messages              # through a param annotation

    def test_suppressed(self):
        report = run_fixture("x3_suppressed")
        assert report.findings == []
        assert report.suppressed == 1

    def test_fixed(self):
        report = run_fixture("x3_fixed")
        assert report.findings == []


class TestSharedModelCache:
    def test_model_built_once_per_engine_run(self, monkeypatch):
        calls = []
        real = contracts.build_symbol_model

        def counting(modules):
            calls.append(len(list(modules)))
            return real(modules)

        monkeypatch.setattr(contracts, "build_symbol_model", counting)
        report = run_fixture("x1_fixed")
        assert report.findings == []
        assert len(calls) == 1      # X1, X2 and X3 share one build


class TestX1Drill:
    @pytest.mark.parametrize("rel, anchor", [
        ("core/simulator.py", "self._mispredicts += 1"),
        ("branch/predictor.py",
         "predicted_taken = self.tage.observe(address, taken)"),
        ("backend/core.py", "self.busy_cycles += 1"),
        ("power/decoder.py", "self.insts_decoded += num_insts"),
        ("caches/setassoc.py", "self.hits += 1"),
        ("frontend/loopcache.py", "self.captures += 1"),
    ], ids=["core", "branch", "backend", "power", "caches", "frontend"])
    def test_planted_counter_is_caught(self, tmp_path, rel, anchor):
        """Plant a counter increment nobody reads into a copy of one real
        module per counter package; the whole-tree run must flag exactly
        that counter."""
        source = (REPO_ROOT / "src/repro" / rel).read_text()
        line = next(l for l in source.splitlines() if anchor in l)
        pad = line[:len(line) - len(line.lstrip())]
        planted = tmp_path / "repro" / rel
        planted.parent.mkdir(parents=True)
        planted.write_text(source.replace(
            line, line + "\n" + pad + "self._phantom_counter += 1", 1))

        engine = LintEngine(root=REPO_ROOT, rules=all_rules())
        report = engine.run([REPO_ROOT / "src", planted])
        assert [f.rule for f in report.findings] == ["X1"]
        assert "_phantom_counter" in report.findings[0].message
        assert report.findings[0].path == planted.resolve().as_posix()
