"""Tests for the control plane (repro.control): update routing by
delta shape, all-or-nothing staging, scoped structural swaps, and the
click-update CLI."""

import json

import pytest

from repro.control import ControlPlane, ControlPlaneError
from repro.elements.hotswap import SwapReport
from repro.lang.lexer import split_config_args
from repro.runtime import ExecutionProfile
from repro.sim.testbed import Testbed


def build_plane(profile=None):
    testbed = Testbed(2)
    router, devices = testbed.build_router(
        testbed.variant_graph("base"), profile=profile or ExecutionProfile.fast()
    )
    return testbed, ControlPlane(router), devices


def drive(testbed, plane, devices, count=64, start=0):
    frames = testbed.evaluation_frames(count + start)[start:]
    for device_name, frame in frames:
        devices[device_name].receive_frame(frame)
    plane.router.run_tasks(count)
    return sum(len(device.transmitted) for device in devices.values())


def routes_of(plane, name="rt"):
    return split_config_args(plane.router.graph.elements[name].config)


class TestInPlace:
    def test_route_patch_kind_and_identity(self):
        testbed, plane, devices = build_plane()
        router = plane.router
        report = plane.update_routes("rt", routes_of(plane))
        assert isinstance(report, SwapReport)
        assert report.kind == "in-place"
        assert report.elements_patched == 1
        assert set(report.phases) == {"diff", "stage", "patch"}
        assert plane.router is router  # no new router generation
        assert drive(testbed, plane, devices) > 0

    def test_route_patch_changes_forwarding(self):
        """Swapping the two network routes re-aims the traffic: packets
        for network 2 now leave via interface 0's queue and vice versa —
        the patched table is really live under the compiled fast path."""
        testbed, plane, devices = build_plane()
        before = drive(testbed, plane, devices, 32)
        assert before > 0
        per_device_before = {
            name: len(device.transmitted) for name, device in devices.items()
        }
        routes = routes_of(plane)
        swapped = []
        for route in routes:
            parts = route.split()
            if parts[-1] == "1":
                parts[-1] = "2"
            elif parts[-1] == "2":
                parts[-1] = "1"
            swapped.append(" ".join(parts))
        report = plane.update_routes("rt", swapped)
        assert report.kind == "in-place"
        drive(testbed, plane, devices, 32, start=32)
        per_device_after = {
            name: len(device.transmitted) for name, device in devices.items()
        }
        deltas = {
            name: per_device_after[name] - per_device_before[name]
            for name in per_device_after
        }
        # Forwarding continued, but the output interfaces flipped: the
        # device that was quiet before the patch now transmits.
        assert sum(deltas.values()) > 0
        assert plane.router.graph.elements["rt"].config == ", ".join(swapped)

    def test_classifier_patch_in_place(self):
        testbed, plane, devices = build_plane()
        rules = split_config_args(plane.router.graph.elements["c0"].config)
        report = plane.update_rules("c0", rules)
        assert report.kind == "in-place"
        assert drive(testbed, plane, devices) > 0

    def test_patch_deopts_adaptive_chains(self):
        from repro.runtime.adaptive import AdaptiveConfig

        config = AdaptiveConfig(threshold=48, sample=4, min_samples=12)
        testbed, plane, devices = build_plane(
            profile=ExecutionProfile.tiered(config=config)
        )
        drive(testbed, plane, devices, 256)  # promote hot chains to tier 2
        engine = plane.router.adaptive
        report = engine.profile_report().as_dict()
        assert any(chain["tier"] == 2 for chain in report["chains"].values())
        # Re-home the speculated hot destination onto the other port.
        hot_raw, _gateway, port = engine.tier2_fp.policy.decisions.route["rt"]["constant"]
        hot = ".".join(str((hot_raw >> shift) & 0xFF) for shift in (24, 16, 8, 0))
        plane.update_routes("rt", routes_of(plane) + ["%s/32 %d" % (hot, 3 - port)])
        report = engine.profile_report().as_dict()
        assert any("control-plane patch of rt" in reason for reason in report["deopts"])
        assert not any(chain["tier"] == 2 for chain in report["chains"].values())

    def test_noop_update(self):
        _, plane, _ = build_plane()
        report = plane.apply(plane.router.graph.copy())
        assert report.kind == "no-op"
        assert report.total_seconds >= 0


class TestRejection:
    def test_bad_route_rejected_nothing_applied(self):
        testbed, plane, devices = build_plane()
        before = plane.router.graph.elements["rt"].config
        with pytest.raises(ControlPlaneError, match="rejected; nothing applied"):
            plane.update_routes("rt", ["999.999.0.0/16 0"])
        assert plane.router.graph.elements["rt"].config == before
        assert drive(testbed, plane, devices) > 0

    def test_out_of_range_port_rejected(self):
        _, plane, _ = build_plane()
        with pytest.raises(ControlPlaneError, match="hot-swap"):
            plane.update_routes("rt", routes_of(plane)[:-1] + ["9.0.0.0/8 7"])

    def test_batch_staging_is_all_or_nothing(self):
        """One bad element in a multi-element delta: the good one must
        not be half-applied."""
        _, plane, _ = build_plane()
        from repro.graph.diff import ElementChange, GraphDelta

        graph = plane.router.graph
        good = ElementChange(
            "rt", "LookupIPRoute", "LookupIPRoute",
            graph.elements["rt"].config, graph.elements["rt"].config,
        )
        bad = ElementChange(
            "c0", "Classifier", "Classifier",
            graph.elements["c0"].config, "totally/bogus rules",
        )
        before_routes = plane.router.elements["rt"].routes
        with pytest.raises(ControlPlaneError):
            plane.apply(GraphDelta(changed=[good, bad]))
        assert plane.router.elements["rt"].routes == before_routes

    def test_unknown_element_rejected(self):
        _, plane, _ = build_plane()
        with pytest.raises(ControlPlaneError, match="no element named"):
            plane.update_routes("nope", ["1.0.0.0/8 1"])


class TestStructural:
    def spliced_graph(self, plane):
        graph = plane.router.graph.copy()
        graph.add_element("xcount", "Counter", None)
        # Splice onto a forwarding output (port 0 is the host path,
        # which the evaluation traffic never takes).
        conn = next(
            c for c in graph.connections if c.from_element == "rt" and c.from_port == 1
        )
        graph.remove_connection(conn)
        graph.add_connection(conn.from_element, conn.from_port, "xcount", 0)
        graph.add_connection("xcount", 0, conn.to_element, conn.to_port)
        return graph

    def test_structural_update_scoped_swap(self):
        testbed, plane, devices = build_plane()
        old = plane.router
        drive(testbed, plane, devices, 32)
        report = plane.apply(self.spliced_graph(plane))
        assert report.kind == "scoped-swap"
        assert report.chains_reused > 0
        assert report.chains_recompiled > 0
        assert "diff" in report.phases and "compile" in report.phases
        assert plane.router is not old and old.retired
        assert "xcount" in plane.router.elements
        # State carried, traffic continues through the new generation.
        assert report.transferred
        assert drive(testbed, plane, devices, 32, start=32) > 0
        assert plane.router["xcount"].count > 0

    def test_history_and_batch(self):
        _, plane, _ = build_plane()
        reports = plane.apply_batch(
            [plane.router.graph.copy(), self.spliced_graph(plane)]
        )
        assert [report.kind for report in reports] == ["no-op", "scoped-swap"]
        assert [report.kind for report in plane.history] == ["no-op", "scoped-swap"]

    def test_failed_swap_keeps_old_router(self):
        _, plane, _ = build_plane()
        old = plane.router
        graph = plane.router.graph.copy()
        graph.add_element("dangling", "Counter", None)  # unconnected ports
        with pytest.raises(ControlPlaneError, match="old router still serving"):
            plane.apply(graph)
        assert plane.router is old and not old.retired


class TestCli:
    def write_config(self, tmp_path):
        from repro.core.toolchain import save_config

        testbed = Testbed(2)
        path = tmp_path / "router.click"
        path.write_text(save_config(testbed.variant_graph("base")))
        return path

    def test_routes_patch_and_json(self, tmp_path, capsys):
        from repro.control.cli import main

        path = self.write_config(tmp_path)
        config = path.read_text()
        rt_config = next(
            line for line in config.splitlines() if line.startswith("rt ::")
        )
        table = rt_config[rt_config.index("(") + 1 : rt_config.rindex(")")]
        status = main([str(path), "--routes", "rt=%s" % table, "--json"])
        assert status == 0
        [entry] = json.loads(capsys.readouterr().out)
        assert entry["kind"] == "in-place"
        assert entry["update"] == "routes rt"

    def test_diff_only(self, tmp_path, capsys):
        from repro.control.cli import main

        path = self.write_config(tmp_path)
        update = tmp_path / "update.click"
        update.write_text(path.read_text().replace("Queue(64)", "Queue(32)"))
        status = main([str(path), "--update", str(update), "--diff-only"])
        assert status == 0
        assert "pure-data" in capsys.readouterr().out

    def test_rejected_update_exits_nonzero(self, tmp_path, capsys):
        from repro.control.cli import main

        path = self.write_config(tmp_path)
        status = main([str(path), "--routes", "rt=999.999.0.0/16 0"])
        assert status == 1
        assert "REJECTED" in capsys.readouterr().out

    def test_batch_in_reference_mode_is_a_usage_error(self, tmp_path, capsys):
        from repro.control.cli import main

        path = self.write_config(tmp_path)
        argv = [str(path), "--routes", "rt=10.0.0.0/8 0", "--mode", "reference", "--batch"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "batch dispatch requires mode" in capsys.readouterr().err

    def test_console_script_entry(self):
        from repro.core.cli import update_main

        with pytest.raises(SystemExit):
            update_main(["--help"])
