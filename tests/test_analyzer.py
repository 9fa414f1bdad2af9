from dataclasses import replace

from conftest import load_script
from simpnet import archdsl as A
from simpnet.analyzer import audit
from simpnet.archdsl import parse
from simpnet.network import count_macs


def arch(lines):
    return parse("\n".join(lines) + "\n")


def rules_of(report, rule, severity=None):
    out = [f for f in report.findings if f.rule_id == rule]
    if severity:
        out = [f for f in out if f.severity == severity]
    return out


GOOD = replace(
    load_script("gen_presets").conv_stack([8] * 5 + [16] * 5 + [24] * 3, (5, 10), input_shape=(3, 32, 32)), name="good13"
)


class TestR1Pyramid:
    def test_increasing_widths_pass(self):
        assert not rules_of(audit(GOOD), "R1")

    def test_width_drop_warns(self):
        spec = arch(
            ["input 3 32 32", "group g1", "conv 3 16 s1 p1", "relu", "conv 3 8 s1 p1", "relu", "gap"]
        )
        findings = rules_of(audit(spec), "R1", "warn")
        assert any("drops" in f.measurement for f in findings)

    def test_flat_widths_warn(self):
        spec = arch(
            ["input 3 32 32", "group g1", "conv 3 8 s1 p1", "relu", "conv 3 8 s1 p1", "relu", "gap"]
        )
        findings = rules_of(audit(spec), "R1", "warn")
        assert any("never grow" in f.measurement for f in findings)


class TestR2Early1x1:
    def test_early_1x1_fails_at_layer_1(self):
        spec = arch(
            [
                "input 3 32 32",
                "group g1",
                "conv 1 8 s1 p0",
                "relu",
                "conv 3 16 s1 p1",
                "relu",
                "conv 3 24 s1 p1",
                "relu",
                "gap",
            ]
        )
        findings = rules_of(audit(spec), "R2", "fail")
        assert len(findings) == 1
        assert findings[0].layer == "conv1"
        assert "2x2" in findings[0].measurement

    def test_late_1x1_allowed(self):
        spec = arch(
            [
                "input 3 32 32",
                "group g1",
                "conv 3 8 s1 p1",
                "relu",
                "conv 3 16 s1 p1",
                "relu",
                "conv 1 24 s1 p0",
                "relu",
                "gap",
            ]
        )
        assert not rules_of(audit(spec), "R2")

    def test_simpnet_default_no_fails(self):
        assert not audit(GOOD).fails()


class TestR3EarlyPooling:
    def test_pool_after_conv1_warns(self):
        spec = arch(
            [
                "input 3 32 32",
                "group g1",
                "conv 3 8 s1 p1",
                "relu",
                "maxpool 2",
                "conv 3 16 s1 p1",
                "relu",
                "conv 3 24 s1 p1",
                "relu",
                "gap",
            ]
        )
        findings = rules_of(audit(spec), "R3", "warn")
        assert len(findings) == 1 and findings[0].layer == "pool1"

    def test_pool_after_three_convs_clean(self):
        spec = arch(
            [
                "input 3 32 32",
                "group g1",
                "conv 3 8 s1 p1",
                "conv 3 8 s1 p1",
                "conv 3 8 s1 p1",
                "maxpool 2",
                "conv 3 16 s1 p1",
                "relu",
                "gap",
            ]
        )
        assert not rules_of(audit(spec), "R3")

    def test_pool_placement_arms_classified(self):
        presets = A.ablation_presets()
        by_name = dict(presets["pool-placement"].arms)
        # pool as 3rd layer: only 2 convs precede it -> early-pooling warning
        assert rules_of(audit(by_name["pool-l3"]), "R3", "warn")
        assert not rules_of(audit(by_name["pool-l5"]), "R3")
        assert not rules_of(audit(by_name["pool-l7"]), "R3")

    def test_early_strided_conv_also_warns(self):
        spec = arch(
            ["input 3 32 32", "group g1", "sconv 2 8 s2 p0", "conv 3 16 s1 p1", "relu", "gap"]
        )
        assert rules_of(audit(spec), "R3", "warn")

    def test_simpnet_default_clean(self):
        assert not rules_of(audit(GOOD), "R3")


class TestR4Balance:
    def test_wide_end_warns(self):
        presets = A.ablation_presets()
        by_name = dict(presets["balanced-vs-wide-end-128k"].arms)
        heavy = audit(by_name["wide-end"])
        assert rules_of(heavy, "R4", "warn")
        balanced = audit(by_name["balanced"])
        assert not rules_of(balanced, "R4")

    def test_single_dominant_layer_flagged(self):
        spec = arch(
            [
                "input 3 32 32",
                "group g1",
                "conv 3 4 s1 p1",
                "relu",
                "conv 3 128 s1 p1",
                "relu",
                "gap",
            ]
        )
        findings = rules_of(audit(spec), "R4", "warn")
        assert findings and findings[0].layer == "conv2"


class TestR5EndShrinkage:
    def test_tiny_final_map_with_heavy_tail_warns(self):
        lines = ["input 3 32 32", "group g1", "conv 3 4 s1 p1", "relu", "maxpool 2"]
        for _ in range(4):
            lines += ["maxpool 2"]
        lines += ["group g2", "conv 3 64 s1 p1", "relu", "group head", "gap", "flatten", "dense 10"]
        spec = arch(lines)
        findings = rules_of(audit(spec), "R5", "warn")
        assert findings and "1x1" in findings[0].measurement

    def test_simpnet_default_clean(self):
        assert not rules_of(audit(GOOD), "R5")


class TestR6KernelCost:
    def test_5x5_reports_25_over_9(self):
        spec = arch(
            ["input 3 32 32", "group g1", "conv 5 8 s1 p2", "relu", "conv 3 16 s1 p1", "relu", "gap"]
        )
        findings = rules_of(audit(spec), "R6", "info")
        assert len(findings) == 1
        assert "25/9" in findings[0].measurement and "2.78" in findings[0].measurement

    def test_3x3_silent(self):
        assert not rules_of(audit(GOOD), "R6")


class TestR7Homogeneity:
    def test_mid_group_pool_mixes_sizes(self):
        spec = arch(
            [
                "input 3 32 32",
                "group g1",
                "conv 3 8 s1 p1",
                "conv 3 8 s1 p1",
                "conv 3 8 s1 p1",
                "maxpool 2",
                "conv 3 8 s1 p1",
                "relu",
                "gap",
            ]
        )
        findings = rules_of(audit(spec), "R7", "info")
        assert findings and findings[0].layer == "g1"

    def test_simpnet_groups_homogeneous(self):
        assert not rules_of(audit(GOOD), "R7")


class TestReportContract:
    def test_deterministic_byte_identical(self):
        a = audit(GOOD)
        b = audit(GOOD)
        assert a.render_table() == b.render_table()
        assert a.render_records() == b.render_records()

    def test_ledger_matches_hand_summation(self):
        # GOOD: 3x3 convs of widths 8 (x5), 16 (x5), 24 (x3), each with bias and BN, then a 24 -> 10 head
        convs = (
            (3 * 3 * 3 * 8 + 8)
            + 4 * (3 * 3 * 8 * 8 + 8)
            + (3 * 3 * 8 * 16 + 16)
            + 4 * (3 * 3 * 16 * 16 + 16)
            + (3 * 3 * 16 * 24 + 24)
            + 2 * (3 * 3 * 24 * 24 + 24)
        )
        bn = 2 * (5 * 8 + 5 * 16 + 3 * 24)  # gamma and beta per channel
        head = 24 * 10 + 10
        assert convs + bn + head == 27_538
        assert audit(GOOD).ledger.total_params == 27_538

    def test_records_have_five_tab_fields(self):
        spec = arch(
            ["input 3 32 32", "group g1", "conv 1 8 s1 p0", "relu", "conv 3 16 s1 p1", "relu", "gap"]
        )
        records = audit(spec).render_records().strip().splitlines()
        assert records
        for line in records:
            assert len(line.split("\t")) == 5

    def test_audit_with_input_override(self):
        report = audit(GOOD, input_shape=(3, 64, 64))
        assert report.ledger.total_params == audit(GOOD).ledger.total_params
        assert report.ledger.total_macs > audit(GOOD).ledger.total_macs


class TestCompare:
    def test_300k_vs_1_6m_ratio(self):
        presets = A.ablation_presets()
        by_name = dict(presets["kernel-size"].arms)
        ratio = count_macs(A.build(by_name["3x3-1.6m"])).total_params / count_macs(
            A.build(by_name["3x3-300k"])
        ).total_params
        assert abs(ratio - 5.33) < 0.15

    def test_maxpool_vs_sconv_delta(self):
        presets = A.ablation_presets()
        (_, a), (_, b) = presets["maxpool-vs-sconv"].arms
        ta = count_macs(A.build(a)).total_params
        tb = count_macs(A.build(b)).total_params
        assert abs(ta - tb) / ta < 0.02
