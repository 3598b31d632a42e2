from __future__ import annotations

import hashlib
import json
import re

import numpy as np
import pytest

from flowlab import cli, dataset
from flowlab.dataset import build_cf, build_pf, distribution, read_csv
from flowlab.evaluation import split_keys, sweep
from flowlab.forest import TrainConfig
from flowlab.meter import MeterConfig, Trigger, meter
from flowlab.synth import SynthSpec, derive_rules, synth_trace
from flowlab.trace_io import dedup, read_trace, reorder, write_trace

from conftest import corpus_path, random_trace
from reference import build_pcap, build_tcp_frame, reference_read_trace, reference_write_trace


SMALL_SPEC = {
    "name": "cli-corpus",
    "templates": [
        {
            "label": "BENIGN",
            "flows": 30,
            "packets": [6, 10],
            "payload": [40, 200],
            "iat_us": [1000, 9000],
            "client_ips": ["10.10.0.0/24"],
            "server_ips": ["192.168.50.1"],
            "server_ports": [80],
            "protocol": 17,
            "start_us": [0, 3000000],
        },
        {
            "label": "ATTACK",
            "flows": 30,
            "packets": [6, 10],
            "payload": [600, 900],
            "iat_us": [1000, 9000],
            "client_ips": ["10.20.0.0/24"],
            "server_ips": ["192.168.50.1"],
            "server_ports": [80],
            "protocol": 17,
            "start_us": [0, 3000000],
        },
    ],
}


@pytest.fixture()
def workdir(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SMALL_SPEC))
    return tmp_path


def _run(*argv) -> int:
    return cli.main([str(a) for a in argv])


class TestPreprocess:
    def test_empty_pcap(self, tmp_path, capsys):
        src = tmp_path / "in.pcap"
        src.write_bytes(build_pcap([]))
        out = tmp_path / "out.pcap"
        assert _run("preprocess", src, out) == 0
        assert len(read_trace(out)) == 0
        captured = capsys.readouterr().out
        assert "packets read: 0" in captured
        assert "skipped: 0" in captured

    def test_duplicate_reported(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        trace = reorder(random_trace(rng, 20))
        from dataclasses import replace

        pkts = list(trace.packets)
        dup = replace(pkts[0], ts_us=pkts[0].ts_us + 500)
        pkts.insert(1, dup)
        src = tmp_path / "in.pcap"
        write_trace(reorder(replace(trace, packets=tuple(pkts))), src)
        out = tmp_path / "out.pcap"
        assert _run("preprocess", src, out) == 0
        assert "dropped: 1" in capsys.readouterr().out

    def test_counts_match_library(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        trace = random_trace(rng, 150, sorted_ts=False)
        src = tmp_path / "in.pcap"
        write_trace(trace, src)
        out = tmp_path / "out.pcap"
        assert _run("preprocess", src, out, "--dedup-window-us", 20_000) == 0
        text = capsys.readouterr().out

        lib_in = read_trace(src)
        lib_deduped = dedup(lib_in, 20_000)
        assert f"packets read: {len(lib_in)}" in text
        assert f"skipped: {lib_in.skipped}" in text
        assert f"dropped: {len(lib_in) - len(lib_deduped)}" in text
        cleaned = read_trace(out)
        assert [p.ts_us for p in cleaned.packets] == [
            p.ts_us for p in reorder(lib_deduped).packets
        ]

    def test_output_equals_reference_writer(self, tmp_path, dup_pcap, capsys):
        out = tmp_path / "clean.pcap"
        assert _run("preprocess", dup_pcap, out) == 0
        dropped = int(re.search(r"dropped: (\d+)", capsys.readouterr().out).group(1))
        assert dropped > 300
        want = tmp_path / "want.pcap"
        reference_write_trace(reorder(dedup(reference_read_trace(dup_pcap))), want)
        assert out.read_bytes() == want.read_bytes()

    def test_negative_dedup_window_exit_2(self, tmp_path, capsys):
        src = tmp_path / "in.pcap"
        write_trace(random_trace(np.random.default_rng(3), 10), src)
        out = tmp_path / "out.pcap"
        assert _run("preprocess", src, out, "--dedup-window-us", -5) == 2
        assert "dedup window" in capsys.readouterr().err
        assert not out.exists()

    def test_skipped_frames_reported(self, tmp_path, capsys):
        arp = bytes(12) + b"\x08\x06" + bytes(28)
        tcp = build_tcp_frame("10.0.0.1", "10.0.0.2", 1234, 80, 0x02)
        src = tmp_path / "in.pcap"
        # an ARP frame and a final record cut inside its header
        src.write_bytes(build_pcap([(0, arp), (10, tcp), (20, tcp)])[:-(len(tcp) + 4)])
        out = tmp_path / "out.pcap"
        assert _run("preprocess", src, out) == 0
        text = capsys.readouterr().out
        assert "packets read: 1\nskipped: 2\n" in text
        assert len(read_trace(out)) == 1

    def test_unreadable_input_exit_2(self, tmp_path):
        assert _run("preprocess", tmp_path / "missing.pcap", tmp_path / "o.pcap") == 2

    def test_bad_magic_exit_2(self, tmp_path):
        bad = tmp_path / "bad.pcap"
        bad.write_bytes(b"\xde\xad\xbe\xef" + bytes(24))
        assert _run("preprocess", bad, tmp_path / "o.pcap") == 2


class TestSynth:
    def test_minimal_and_deterministic(self, workdir):
        out1, truth1 = workdir / "a.pcap", workdir / "a.json"
        out2, truth2 = workdir / "b.pcap", workdir / "b.json"
        assert _run("synth", workdir / "spec.json", 5, out1, truth1) == 0
        assert _run("synth", workdir / "spec.json", 5, out2, truth2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert truth1.read_text() == truth2.read_text()
        doc = json.loads(truth1.read_text())
        assert len(doc["flows"]) == 60

    def test_metering_output_recovers_ground_truth(self, workdir):
        pcap, truth = workdir / "c.pcap", workdir / "truth.json"
        assert _run("synth", workdir / "spec.json", 9, pcap, truth) == 0
        records, _ = meter(reorder(read_trace(pcap)), MeterConfig())
        doc = json.loads(truth.read_text())
        assert {r.id.hash64 for r in records} == {f["hash64"] for f in doc["flows"]}

    def test_bad_spec_exit_2(self, workdir, capsys):
        bad = workdir / "bad.json"
        template = SMALL_SPEC["templates"][0]
        for doc in (
            {"templates": []},
            {**SMALL_SPEC, "divergence": 3},
            {**SMALL_SPEC, "shared": {"payload": [40, 400], "iat": [1000, 2000]}},
            {**SMALL_SPEC, "templates": [{**template, "tcp": {"fn": True}}]},
            {**SMALL_SPEC, "templates": [{**template, "server_port": [80]}]},
            {**SMALL_SPEC, "templates": ["BENIGN"]},
            {**SMALL_SPEC, "templates": [{**template, "tcp": {"fin": "false"}}]},
            {**SMALL_SPEC, "templates": [{**template, "tcp": {"handshake": 0}}]},
        ):
            bad.write_text(json.dumps(doc))
            assert _run("synth", bad, 1, workdir / "x.pcap", workdir / "x.json") == 2, doc
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "template,spec,field",
        [
            ({"packets": ["8", 30]}, {}, "template.packets"),
            ({"packets": 3}, {}, "template.packets"),
            ({"iat_us": [1]}, {}, "template.iat_us"),
            ({"marker_payload": [1]}, {}, "template.marker_payload"),
            ({}, {"divergence_at": "3"}, "spec.divergence_at"),
            ({}, {"divergence_at": 2.5}, "spec.divergence_at"),
            ({"server_ports": [70000]}, {}, "template.server_ports"),
            ({"flows": 12.9}, {}, "template.flows"),
            ({"flows": True}, {}, "template.flows"),
            ({"protocol": 6.5}, {}, "template.protocol"),
            ({"start_us": [5, 1]}, {}, "template.start_us"),
            ({"client_ips": "10.0.0.1"}, {}, "template.client_ips"),
            ({"server_ips": ["2001:db8::1"]}, {}, "IPv4 and IPv6"),
            # Loads, but past the pcap timestamp range of 2**32 seconds.
            ({"start_us": [4294967296000000, 4294967296000001]}, {}, "ts_us 4294967296"),
        ],
    )
    def test_bad_spec_value_exit_2_names_field(self, workdir, capsys, template, spec, field):
        bad = workdir / "bad.json"
        doc = {**SMALL_SPEC, **spec}
        doc["templates"] = [{**SMALL_SPEC["templates"][0], **template}]
        bad.write_text(json.dumps(doc))
        pcap = workdir / "x.pcap"
        assert _run("synth", bad, 1, pcap, workdir / "x.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not pcap.exists()

    def test_failed_write_keeps_the_file_at_the_output_path(self, workdir, capsys):
        # Flows start 10 ms before the end of the pcap range and run past it.
        bad = workdir / "far.json"
        template = {**SMALL_SPEC["templates"][0], "start_us": [2**32 * 10**6 - 10_000] * 2}
        bad.write_text(json.dumps({**SMALL_SPEC, "templates": [template]}))
        pcap = workdir / "x.pcap"
        pcap.write_bytes(build_pcap([]))
        assert _run("synth", bad, 1, pcap, workdir / "x.json") == 2
        assert "is outside" in capsys.readouterr().err
        assert pcap.read_bytes() == build_pcap([])
        assert sorted(p.name for p in workdir.iterdir()) == ["far.json", "spec.json", "x.pcap"]


def test_outputs_get_the_mode_open_gives(workdir):
    def mode(path) -> int:
        return path.stat().st_mode & 0o777

    out = workdir / "all"
    out.mkdir()
    with open(out / "plain", "w"):
        pass
    expected = mode(out / "plain")
    pcap, rules = out / "t.pcap", out / "rules.json"
    cfg = out / "meter.json"
    cfg.write_text(json.dumps({"pc_triggers": [2], "fd_triggers_ms": []}))
    assert _run("synth", workdir / "spec.json", 3, pcap, out / "t.json", "--rules-out", rules) == 0
    assert _run("preprocess", pcap, out / "clean.pcap") == 0
    assert _run("meter", pcap, rules, out, "--config", cfg, "--min-class-count", 5) == 0
    assert _run("eval", out / "cf.csv", out / "pf_pc_2.csv", out, "--trees", 2) == 0
    written = {p.name: mode(p) for p in out.iterdir()}
    assert len(written) == 16 and set(written.values()) == {expected}


class TestMeterCmd:
    @pytest.fixture()
    def synth_inputs(self, workdir):
        pcap = workdir / "traffic.pcap"
        truth = workdir / "truth.json"
        rules = workdir / "rules.json"
        assert _run("synth", workdir / "spec.json", 3, pcap, truth, "--rules-out", rules) == 0
        return pcap, rules

    def test_outputs_and_rerun_identical(self, workdir, synth_inputs):
        pcap, rules = synth_inputs
        out1 = workdir / "m1"
        out2 = workdir / "m2"
        cfg = workdir / "meter.json"
        cfg.write_text(json.dumps({"pc_triggers": [2, 3, 4], "fd_triggers_ms": [50]}))
        assert _run("meter", pcap, rules, out1, "--config", cfg, "--min-class-count", 5) == 0
        assert _run("meter", pcap, rules, out2, "--config", cfg, "--min-class-count", 5) == 0
        for name in ("cf.csv", "pf_pc_2.csv", "pf_pc_3.csv", "pf_pc_4.csv",
                     "pf_fd_50.csv", "audit.json", "distribution.json"):
            assert (out1 / name).exists(), name
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

        cf = read_csv(out1 / "cf.csv")
        assert len(cf) == 60
        assert cf.label_counts() == {"BENIGN": 30, "ATTACK": 30}

    def test_output_bytes_pinned(self, workdir, synth_inputs):
        # Any change to the bytes of the datasets or the reports shows here.
        pcap, rules = synth_inputs
        out = workdir / "pinned"
        cfg = workdir / "meter.json"
        cfg.write_text(json.dumps({"pc_triggers": [2, 3, 4], "fd_triggers_ms": [50]}))
        assert _run("meter", pcap, rules, out, "--config", cfg, "--min-class-count", 5) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("cf.csv", "pf_pc_3.csv", "distribution.json")
        }
        assert digests == {
            "cf.csv": "a16a16506cd4b6fc12502b692a50c8bedc3f9f5a38137d5d22cadc270b672154",
            "pf_pc_3.csv": "ab8407b089b45f0b58a9da6c60fd4ee5e1bf8e32106ce53bad007c6234b35994",
            "distribution.json": "4a663eb1e96c6ad441ff7e454d2a888a4157f0c6ce604e65a78eeef4c570eb25",
        }

    def test_results_bytes_pinned(self, workdir, synth_inputs):
        # Any change to the trees or the scores that moves a metric shows here.
        pcap, rules = synth_inputs
        out = workdir / "pinned"
        cfg = workdir / "meter.json"
        cfg.write_text(json.dumps({"pc_triggers": [2, 3, 4], "fd_triggers_ms": [50]}))
        assert _run("meter", pcap, rules, out, "--config", cfg, "--min-class-count", 5) == 0
        results = workdir / "results"
        assert _run(
            "eval", out / "cf.csv", str(out / "pf_*.csv"), results, "--task", "both",
            "--trees", 10,
        ) == 0
        digest = hashlib.sha256((results / "results.csv").read_bytes()).hexdigest()
        assert digest == "d171885b3a46d089f3598e5929164360db1667045c4e4f15a6536057cd939861"

    def test_distribution_matches_every_written_file(self, workdir, synth_inputs):
        pcap, rules = synth_inputs
        out = workdir / "md"
        cfg = workdir / "meter.json"
        cfg.write_text(
            json.dumps({"pc_triggers": [2, 9, 30], "fd_triggers_ms": [50], "byte_triggers": [1500]})
        )
        assert _run("meter", pcap, rules, out, "--config", cfg, "--min-class-count", 5) == 0
        dist = json.loads((out / "distribution.json").read_text())
        expected = {"CF": distribution(read_csv(out / "cf.csv")).to_dict()}
        for path in sorted(out.glob("pf_*.csv")):
            pf = read_csv(path)
            if len(pf):
                expected[pf.provenance] = distribution(pf).to_dict()
        assert len(expected) >= 4  # CF and at least three non-empty PF files
        assert "PC=30" not in expected  # no flow reaches 30 packets
        assert dist == expected

    def test_matches_library_pipeline(self, workdir, synth_inputs):
        pcap, rules_path = synth_inputs
        out = workdir / "m3"
        assert _run("meter", pcap, rules_path, out) == 0
        from flowlab.labeling import RuleSet, label_flow

        trace = reorder(read_trace(pcap))
        records, snapshots = meter(trace, MeterConfig())
        rules = RuleSet.from_json(rules_path)
        cf = build_cf(records, [label_flow(r, rules) for r in records], min_class_count=50)

        # CLI writes the same datasets the library pipeline produces
        got_cf = read_csv(out / "cf.csv")
        assert got_cf.hashes() == cf.hashes()
        assert got_cf.label_counts() == cf.label_counts()
        got_pf = read_csv(out / "pf_pc_2.csv")
        lib_pf = build_pf(snapshots[Trigger("pc", 2)], cf, Trigger("pc", 2))
        assert got_pf.hashes() == lib_pf.hashes()
        assert got_pf.label_counts() == lib_pf.label_counts()

    def test_empty_trace_header_only(self, workdir):
        empty = workdir / "empty.pcap"
        empty.write_bytes(build_pcap([]))
        rules = workdir / "r.json"
        rules.write_text(json.dumps({"default_label": "BENIGN", "rules": []}))
        out = workdir / "m4"
        assert _run("meter", empty, rules, out) == 0
        assert (out / "cf.csv").read_text().count("\n") == 1
        assert (out / "pf_pc_2.csv").read_text().count("\n") == 1

    def test_undecodable_config_exit_2_names_the_file(self, workdir, synth_inputs, capsys):
        pcap, rules = synth_inputs
        cfg = workdir / "bad.json"
        cfg.write_text('{"idle_timeout_s": }')
        assert _run("meter", pcap, rules, workdir / "m5", "--config", cfg) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}: Expecting value: line 1 column 20 (char 19)\n"
        assert not (workdir / "m5").exists()

    def test_bad_config_exit_2(self, workdir, synth_inputs):
        pcap, rules = synth_inputs
        cfg = workdir / "bad.json"
        cfg.write_text(json.dumps({"idle_timeout_s": -1}))
        assert _run("meter", pcap, rules, workdir / "m5", "--config", cfg) == 2
        cfg.write_text(json.dumps({"unknown_key": 1}))
        assert _run("meter", pcap, rules, workdir / "m5", "--config", cfg) == 2
        cfg.write_text(json.dumps({"idle_timeout_s": "60"}))
        assert _run("meter", pcap, rules, workdir / "m5", "--config", cfg) == 2
        cfg.write_text(json.dumps({"pc_triggers": 5}))
        assert _run("meter", pcap, rules, workdir / "m5", "--config", cfg) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"pc_triggers": "25"},
            {"fin_rst_expiration": "no"},
            {"pc_triggers": [0, -3]},
            {"fd_triggers_ms": [2.7]},
            {"idle_timeout_s": True},
            {"active_timeout_s": True},
            {"fd_tolerance": False},
            {"active_timeout_s": float("inf")},
            {"idle_timeout_s": 10**400},
            {"fd_triggers_ms": [10**400]},
        ],
    )
    def test_wrongly_typed_config_values_exit_2(self, workdir, synth_inputs, doc, capsys):
        pcap, rules = synth_inputs
        cfg = workdir / "bad.json"
        cfg.write_text(json.dumps(doc))
        out = workdir / "m7"
        assert _run("meter", pcap, rules, out, "--config", cfg) == 2
        assert next(iter(doc)) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc",
        [
            {"rules": [{"label": "DoS", "src_ip": ["10.0.0.1"]}]},
            {"rule": [], "default_label": "BENIGN"},
            {"rules": ["DoS"]},
            [],
            {"rules": [{"label": "DoS", "bidirectional": "false"}]},
            {"rules": [{"label": "DoS", "protocol": "6"}]},
            {"rules": [{"label": "DoS", "dst_ports": [[90, 80]]}]},
            {"rules": [{"label": "DoS", "src_ports": ["90-80"]}]},
            {"rules": [], "default_label": 0},
            {"rules": [{"label": ["DoS"]}]},
        ],
    )
    def test_bad_rules_exit_2(self, workdir, synth_inputs, doc, capsys):
        pcap, _ = synth_inputs
        rules = workdir / "bad_rules.json"
        rules.write_text(json.dumps(doc))
        assert _run("meter", pcap, rules, workdir / "m6") == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_deeply_nested_rules_exit_2_names_the_file(self, workdir, synth_inputs, capsys):
        pcap, _ = synth_inputs
        rules = workdir / "deep_rules.json"
        rules.write_text("[" * 1000 + "]" * 1000)
        assert _run("meter", pcap, rules, workdir / "m13") == 2
        assert capsys.readouterr().err.startswith(f"error: {rules}: ")

    def test_each_record_labelled_once(self, workdir, synth_inputs, monkeypatch):
        pcap, rules = synth_inputs
        labelled, metered = [], []
        label_flow, run_meter = dataset.label_flow, cli.run_meter

        def counting_label_flow(record, rule_set):
            labelled.append(record)
            return label_flow(record, rule_set)

        def keeping_run_meter(*args):
            metered.append(run_meter(*args))
            return metered[-1]

        monkeypatch.setattr(dataset, "label_flow", counting_label_flow)
        monkeypatch.setattr(cli, "run_meter", keeping_run_meter)
        assert _run("meter", pcap, rules, workdir / "m14") == 0
        ((records, _),) = metered
        assert len(records) == 60
        assert list(map(id, labelled)) == list(map(id, records))

    def test_benign_class_other_than_benign_exit_2(self, workdir, synth_inputs, capsys):
        # The CF/PF files do not record the benign class, so eval could not follow it.
        pcap, _ = synth_inputs
        rules = workdir / "normal_rules.json"
        rules.write_text(json.dumps({"default_label": "NORMAL", "rules": []}))
        out = workdir / "m12"
        assert _run("meter", pcap, rules, out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rules.default_label" in err
        assert not out.exists()

    def test_benign_totals_agree(self, workdir, synth_inputs):
        pcap, rules = synth_inputs
        out = workdir / "m13"
        assert _run("meter", pcap, rules, out, "--min-class-count", 5) == 0
        benign_rows = read_csv(out / "cf.csv").label_counts()["BENIGN"]
        dist = json.loads((out / "distribution.json").read_text())
        audit = json.loads((out / "audit.json").read_text())
        assert dist["CF"]["totals"]["benign"] == benign_rows == 30
        assert audit["payload_counts"]["BENIGN"] == benign_rows

    @pytest.mark.parametrize(
        "rule,field",
        [
            ({"dst_ports": "80"}, "rule.dst_ports"),
            ({"dst_ports": ["80", 70000, 80.9]}, "rule.dst_ports"),
            ({"dst_ports": [70000]}, "rule.dst_ports"),
            ({"dst_ports": [80.9]}, "rule.dst_ports"),
            ({"dst_ports": [True]}, "rule.dst_ports"),
            ({"src_ports": [[1, 70000]]}, "rule.src_ports"),
            ({"window_us": [1.5, 2.7]}, "rule.window_us"),
            ({"window_us": 5}, "rule.window_us"),
            ({"src_ips": "10.0.0.0/8"}, "rule.src_ips"),
            ({"dst_ips": ["10.0.0.0/33"]}, "rule.dst_ips"),
            ({"label": None}, "rule.label"),
        ],
    )
    def test_bad_rule_value_exit_2_names_field(self, workdir, synth_inputs, capsys, rule, field):
        pcap, _ = synth_inputs
        rules = workdir / "bad_rules.json"
        rule = {k: v for k, v in {"label": "DoS", **rule}.items() if v is not None}
        rules.write_text(json.dumps({"rules": [rule]}))
        out = workdir / "m8"
        assert _run("meter", pcap, rules, out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"split": {"seed": 9.7}}, "split.seed"),
            ({"split": {"seed": True}}, "split.seed"),
            ({"split": {"seed": -1}}, "split.seed"),
            ({"split": {"ratio": "0.6"}}, "split.ratio"),
            ({"split": {"ratio": 1.5}}, "split.ratio"),
            ({"min_class_count": 5.9}, "pipeline.min_class_count"),
            ({"min_class_count": -1}, "pipeline.min_class_count"),
            ({"rules_path": 5}, "pipeline.rules_path"),
            ({"output_dir": ["out"]}, "pipeline.output_dir"),
        ],
    )
    def test_bad_pipeline_value_exit_2_names_field(
        self, workdir, synth_inputs, capsys, doc, field
    ):
        pcap, rules = synth_inputs
        pipeline = workdir / "pipeline.json"
        pipeline.write_text(json.dumps(doc))
        out = workdir / "m9"
        assert _run("meter", pcap, rules, out, "--pipeline", pipeline) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    def test_min_class_count_flag_passes_the_field_check(self, workdir, synth_inputs, capsys):
        pcap, rules = synth_inputs
        out = workdir / "m10"
        assert _run("meter", pcap, rules, out, "--min-class-count", -1) == 2
        assert "pipeline.min_class_count" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["rules_path", "output_dir"])
    def test_pipeline_paths_other_than_the_arguments_exit_2(
        self, workdir, synth_inputs, capsys, field
    ):
        pcap, rules = synth_inputs
        pipeline = workdir / "pipeline.json"
        pipeline.write_text(json.dumps({field: str(workdir / "elsewhere")}))
        out = workdir / "m11"
        assert _run("meter", pcap, rules, out, "--pipeline", pipeline) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    def test_echo_passed_back_as_pipeline(self, workdir, synth_inputs, monkeypatch):
        pcap, rules = synth_inputs
        monkeypatch.chdir(workdir)
        cfg = workdir / "meter.json"
        cfg.write_text(json.dumps({"pc_triggers": [2], "fd_triggers_ms": []}))
        argv = ("meter", pcap, rules.name, "out", "--min-class-count", 5)
        assert _run(*argv, "--config", cfg) == 0
        echo = workdir / "echo.json"
        echo.write_text((workdir / "out" / "config.json").read_text())
        # Paths that name the same files in other words still match.
        assert _run("meter", pcap, rules, workdir / "out", "--pipeline", echo) == 0
        assert _run(*argv, "--pipeline", echo) == 0
        assert (workdir / "out" / "config.json").read_text() == echo.read_text()
        assert _run(
            "eval", "out/cf.csv", "out/pf_pc_2.csv", "res",
            "--task", "binary", "--trees", 2, "--pipeline", echo,
        ) == 0

    def test_pipeline_defaults_apply(self, workdir, synth_inputs):
        pcap, rules = synth_inputs
        pipeline = workdir / "pipeline.json"
        pipeline.write_text(
            json.dumps(
                {
                    "meter": {"pc_triggers": [2], "fd_triggers_ms": []},
                    "min_class_count": 5,
                    "split": {"ratio": 0.6, "seed": 9},
                }
            )
        )
        out = workdir / "mp"
        assert _run("meter", pcap, rules, out, "--pipeline", pipeline) == 0
        assert (out / "pf_pc_2.csv").exists()
        assert not (out / "pf_pc_3.csv").exists()
        echoed = json.loads((out / "config.json").read_text())
        assert echoed["min_class_count"] == 5
        assert echoed["meter"]["pc_triggers"] == [2]
        assert echoed["split"] == {"ratio": 0.6, "seed": 9}
        # One seed drives split and training, and the echo loads back.
        assert echoed["train"]["seed"] == 9
        assert cli.PipelineConfig.from_json(out / "config.json").to_dict() == echoed

    def test_reports_are_emitted_in_both_forms(self, workdir, synth_inputs):
        pcap, rules = synth_inputs
        out = workdir / "m6"
        assert _run("meter", pcap, rules, out, "--min-class-count", 5) == 0
        audit = json.loads((out / "audit.json").read_text())
        assert "fin_gt2" in audit and "zpl_counts" in audit
        assert "flows with FIN > 2" in (out / "audit.txt").read_text()
        dist = json.loads((out / "distribution.json").read_text())
        assert "CF" in dist and "totals" in dist["CF"]
        assert "== CF ==" in (out / "distribution.txt").read_text()


class TestEvalCmd:
    @pytest.fixture()
    def metered(self, workdir):
        pcap = workdir / "traffic.pcap"
        rules = workdir / "rules.json"
        assert _run(
            "synth", workdir / "spec.json", 3, pcap, workdir / "t.json",
            "--rules-out", rules,
        ) == 0
        out = workdir / "datasets"
        cfg = workdir / "meter.json"
        cfg.write_text(json.dumps({"pc_triggers": [2, 3], "fd_triggers_ms": []}))
        assert _run("meter", pcap, rules, out, "--config", cfg, "--min-class-count", 5) == 0
        return out

    def test_single_pf_rows(self, workdir, metered, capsys):
        out = workdir / "eval1"
        rc = _run(
            "eval", metered / "cf.csv", metered / "pf_pc_2.csv", out,
            "--task", "binary", "--trees", 10,
        )
        assert rc == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert len(lines) == 4  # header + 3 scenarios
        assert (out / "summary.txt").exists()

    def test_fixed_seed_rerun_identical(self, workdir, metered):
        out1, out2 = workdir / "e1", workdir / "e2"
        for out in (out1, out2):
            assert _run(
                "eval", metered / "cf.csv", str(metered / "pf_pc_*.csv"), out,
                "--task", "both", "--seed", 4, "--trees", 8,
            ) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_matches_library_sweep(self, workdir, metered):
        out = workdir / "e3"
        assert _run(
            "eval", metered / "cf.csv", str(metered / "pf_pc_*.csv"), out,
            "--task", "binary", "--seed", 6, "--ratio", 0.7, "--trees", 12,
        ) == 0
        cf = read_csv(metered / "cf.csv")
        family = {
            Trigger("pc", n): read_csv(metered / f"pf_pc_{n}.csv") for n in (2, 3)
        }
        tc = TrainConfig(n_trees=12, seed=6)
        report = sweep(
            cf, family, tasks=("binary",), tc=tc, split=split_keys(cf, 0.7, 6)
        )
        assert (out / "results.csv").read_text() == report.to_csv_text()

    def test_label_with_a_carriage_return_reaches_eval(self, workdir):
        # A label holding "\r" must be quoted in cf.csv and pf_*.csv, or
        # eval reads its row as more cells than the header.
        pcap, rules = workdir / "traffic.pcap", workdir / "rules.json"
        assert _run(
            "synth", workdir / "spec.json", 3, pcap, workdir / "t.json", "--rules-out", rules
        ) == 0
        doc = json.loads(rules.read_text())
        (rule,) = doc["rules"]
        rule["label"] = "AT\rTACK"
        rules.write_text(json.dumps(doc))
        out = workdir / "datasets"
        cfg = workdir / "meter.json"
        cfg.write_text(json.dumps({"pc_triggers": [3], "fd_triggers_ms": []}))
        assert _run("meter", pcap, rules, out, "--config", cfg, "--min-class-count", 5) == 0
        for name in ("cf.csv", "pf_pc_3.csv"):
            assert read_csv(out / name).label_counts() == {"BENIGN": 30, "AT\rTACK": 30}
        assert _run(
            "eval", out / "cf.csv", out / "pf_pc_3.csv", workdir / "e", "--task", "both",
            "--trees", 4,
        ) == 0

    def test_all_cells_skipped_exit_3(self, workdir, metered):
        # a PF file with no rows: every cell is skipped
        import shutil

        empty = workdir / "pf_pc_19.csv"
        header = (metered / "pf_pc_2.csv").read_text().splitlines()[0]
        empty.write_text(header + "\n")
        out = workdir / "e4"
        assert _run("eval", metered / "cf.csv", empty, out, "--task", "binary") == 3

    def test_bad_cf_exit_2(self, workdir, metered, capsys):
        text = (metered / "pf_pc_2.csv").read_text()
        (metered / "pf_bad.csv").write_text(text.replace(",PC=2\n", ",PC=x\n"))
        (metered / "pf_below_one.csv").write_text(text.replace(",PC=2\n", ",PC=-3\n"))
        (metered / "pf_pc_0.csv").write_text(text.splitlines(keepends=True)[0])
        cases = [
            ("pf_pc_2.csv", "pf_pc_3.csv", "pf_pc_2.csv", "provenance"),  # a PF file as the CF
            ("cf.csv", "cf.csv", "cf.csv", "provenance"),  # a CF file among the PF files
            ("cf.csv", "pf_bad.csv", "pf_bad.csv", "provenance"),  # a provenance that is no trigger
            ("cf.csv", "pf_below_one.csv", "pf_below_one.csv", "provenance 'PC=-3'"),
            ("cf.csv", "pf_pc_0.csv", "pf_pc_0.csv", "filename"),  # an empty file's trigger < 1
        ]
        for cf_name, pf_name, named, problem in cases:
            out = workdir / "e5"
            rc = _run("eval", metered / cf_name, metered / pf_name, out)
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {metered / named}: ") and problem in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "column,cell",
        [
            ("duration_ms", "nan"),
            ("duration_ms", "1e999"),
            ("bidirectional_packets", "nan"),
            ("flow_hash", "abc"),
        ],
    )
    def test_bad_cell_exit_2_names_file_and_column(self, workdir, metered, column, cell, capsys):
        header, first, *rest = (metered / "pf_pc_3.csv").read_text().splitlines()
        cells = first.split(",")
        cells[header.split(",").index(column)] = cell
        bad = metered / "pf_edited.csv"
        bad.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
        out = workdir / "e12"
        assert _run("eval", metered / "cf.csv", bad, out, "--task", "binary", "--trees", 2) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: column {column}: ")
        assert not out.exists()

    def test_non_utf8_cf_exit_2_names_the_file(self, workdir, metered, capsys):
        cf = metered / "cf.csv"
        cf.write_bytes(cf.read_bytes().replace(b"ATTACK", b"ATT\xffCK", 1))
        out = workdir / "e13"
        assert _run("eval", cf, metered / "pf_pc_2.csv", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read dataset {cf}: ") and "0xff" in err
        assert not out.exists()

    def test_oversized_cell_exit_2_names_the_file(self, workdir, metered, capsys):
        # Past the csv module's field size limit of 131,072 characters.
        cf = metered / "cf.csv"
        cf.write_text(cf.read_text().replace("ATTACK", "A" * 200_000, 1))
        out = workdir / "e14"
        assert _run("eval", cf, metered / "pf_pc_2.csv", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read dataset {cf}: ") and "field" in err
        assert not out.exists()

    def test_two_pf_files_of_one_trigger_exit_2(self, workdir, metered, capsys):
        copy = workdir / "pf_copy.csv"
        copy.write_bytes((metered / "pf_pc_2.csv").read_bytes())
        out = workdir / "e14"
        assert _run("eval", metered / "cf.csv", metered / "pf_pc_2.csv", copy, out) == 2
        assert capsys.readouterr().err == "error: duplicate partial-flow dataset for PC=2\n"
        assert not out.exists()

    def test_jobs_flag_exit_2(self, workdir, metered, capsys):
        # Training has one path, in one thread: a thread count is no option.
        out = workdir / "e8"
        with pytest.raises(SystemExit) as exc:
            _run("eval", metered / "cf.csv", metered / "pf_pc_2.csv", out, "--jobs", 2)
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,value,field",
        [
            ("--seed", -1, "split.seed"),
            ("--ratio", 1.5, "split.ratio"),
            ("--ratio", 0, "split.ratio"),
            ("--trees", 0, "train.n_trees"),
        ],
    )
    def test_bad_flag_exit_2_names_field(self, workdir, metered, flag, value, field, capsys):
        out = workdir / "e11"
        rc = _run("eval", metered / "cf.csv", metered / "pf_pc_2.csv", out, flag, value)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    def test_pipeline_train_settings_apply(self, workdir, metered):
        pipeline = workdir / "pipeline.json"
        pipeline.write_text(json.dumps({"train": {"max_depth": 1, "n_trees": 3}}))
        out = workdir / "e6"
        assert _run(
            "eval", metered / "cf.csv", metered / "pf_pc_2.csv", out,
            "--task", "binary", "--seed", 2, "--pipeline", pipeline,
        ) == 0
        echoed = json.loads((out / "eval_config.json").read_text())
        assert echoed["train"]["max_depth"] == 1
        assert echoed["train"]["n_trees"] == 3
        assert echoed["train"]["seed"] == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"min_class_cuont": 5},
            {"split": {"ratio": 0.6, "sede": 1}},
            {"train": {"max_dpeth": 1}},
            {"split": 0.6},
            [],
            {"train": {"n_trees": "5"}},
            {"min_class_count": [5]},
            {"train": {"max_depth": "3"}},
            {"train": {"max_depth": 0}},
            {"train": {"bootstrap": "no"}},
            {"train": {"n_trees": True}},
            {"train": {"min_samples_leaf": 2.5}},
            {"train": {"max_features": True}},
            {"train": {"seed": False}},
            {"train": {"seed": 9}},
            {"split": {"seed": 0}, "train": {"seed": 9}},
            {"split": {"seed": 3}, "train": {"seed": 0}},
        ],
    )
    def test_bad_pipeline_config_exit_2(self, workdir, metered, doc, capsys):
        pipeline = workdir / "pipeline.json"
        pipeline.write_text(json.dumps(doc))
        out = workdir / "e7"
        rc = _run(
            "eval", metered / "cf.csv", metered / "pf_pc_2.csv", out, "--pipeline", pipeline
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("scenario", ["PF_PF,PF_PF", "CF_CF,CF_PF,CF_CF"])
    def test_repeated_scenario_exit_2(self, workdir, metered, scenario, capsys):
        out = workdir / "e9"
        rc = _run(
            "eval", metered / "cf.csv", metered / "pf_pc_2.csv", out,
            "--task", "binary", "--trees", 2, "--scenario", scenario,
        )
        assert rc == 2
        assert "duplicate scenario" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_scenario_exit_2(self, workdir, metered, capsys):
        out = workdir / "e10"
        rc = _run(
            "eval", metered / "cf.csv", metered / "pf_pc_2.csv", out,
            "--task", "binary", "--trees", 2, "--scenario", "CF_CF,XX_YY",
        )
        assert rc == 2
        assert "unknown scenario kind 'XX_YY'" in capsys.readouterr().err
        assert not out.exists()


def test_help_runs():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
