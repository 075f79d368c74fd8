"""CLI tests: build / query / demo round trip through real files."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.datasets.loaders import write_fvecs


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(0)
    database = rng.standard_normal((120, 10)) * 2.0
    queries = database[:3] + 0.01
    np.save(root / "db.npy", database)
    write_fvecs(root / "queries.fvecs", queries)
    return root, database, queries


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_args(self):
        args = build_parser().parse_args(
            ["build", "db.npy", "--index", "i.npz", "--keys", "k.npz", "--beta", "1.0"]
        )
        assert args.command == "build"
        assert args.beta == 1.0

    def test_refine_engine_choices(self):
        args = build_parser().parse_args(
            ["query", "--index", "i.npz", "--keys", "k.npz", "--queries", "q.npy",
             "--refine-engine", "heap"]
        )
        assert args.refine_engine == "heap"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--index", "i.npz", "--keys", "k.npz",
                 "--queries", "q.npy", "--refine-engine", "quantum"]
            )

class TestBuildAndQuery:
    def test_roundtrip(self, cli_workspace, capsys):
        root, database, queries = cli_workspace
        index_path = str(root / "index.npz")
        keys_path = str(root / "keys.npz")
        code = main(
            [
                "build",
                str(root / "db.npy"),
                "--index", index_path,
                "--keys", keys_path,
                "--beta", "0.2",
                "--m", "8",
                "--ef-construction", "40",
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "built index over n=120 d=10" in out

        code = main(
            [
                "query",
                "--index", index_path,
                "--keys", keys_path,
                "--queries", str(root / "queries.fvecs"),
                "-k", "5",
                "--ef-search", "60",
                "--seed", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.startswith("query")]
        assert len(lines) == 3
        # Self-queries: query i is database[i] + epsilon, so id i must appear.
        for i, line in enumerate(lines):
            ids = [int(x) for x in line.split(":")[1].split()]
            assert i in ids

    def test_sharded_roundtrip(self, cli_workspace, capsys):
        root, database, queries = cli_workspace
        index_path = str(root / "sharded_index.npz")
        keys_path = str(root / "sharded_keys.npz")
        code = main(
            [
                "build",
                str(root / "db.npy"),
                "--index", index_path,
                "--keys", keys_path,
                "--beta", "0.2",
                "--backend", "bruteforce",
                "--shards", "3",
                "--shard-strategy", "hash",
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shards=3 (hash)" in out

        code = main(
            [
                "query",
                "--index", index_path,
                "--keys", keys_path,
                "--queries", str(root / "queries.fvecs"),
                "-k", "5",
                "--json",
                "--seed", "2",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shards"] == 3
        assert set(payload["shard_seconds"]) == {"0", "1", "2"}
        assert payload["gather_bytes"] > 0
        # Stage timings account for the whole pipeline and name the
        # refine engine that produced the answer.
        assert payload["refine_engine"] == "vectorized"
        assert payload["refine_kernel_seconds"] <= payload["refine_seconds"]
        assert payload["wall_seconds"] > 0
        assert payload["server_seconds"] == pytest.approx(
            payload["filter_seconds"]
            + payload["mask_seconds"]
            + payload["refine_seconds"]
        )
        for i, ids in enumerate(payload["ids"]):
            assert i in ids

    def test_build_workers_flag_is_gone(self, cli_workspace, capsys):
        root, _, _ = cli_workspace
        with pytest.raises(SystemExit):
            main(
                [
                    "build",
                    str(root / "db.npy"),
                    "--index", str(root / "gone_index.npz"),
                    "--keys", str(root / "gone_keys.npz"),
                    "--beta", "0.2",
                    "--build-workers", "2",
                ]
            )
        assert "unrecognized arguments: --build-workers" in capsys.readouterr().err

    def test_build_json_report(self, cli_workspace, capsys):
        root, database, _ = cli_workspace
        code = main(
            [
                "build",
                str(root / "db.npy"),
                "--index", str(root / "json_index.npz"),
                "--keys", str(root / "json_keys.npz"),
                "--beta", "0.2",
                "--backend", "bruteforce",
                "--shards", "3",
                "--build-mode", "bulk",
                "--json",
                "--seed", "1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "bruteforce"
        assert payload["shards"] == 3
        assert "build_workers" not in payload
        assert payload["build_mode"] == "bulk"
        assert payload["encrypt_seconds"] > 0
        assert payload["total_seconds"] == pytest.approx(
            payload["encrypt_seconds"] + payload["build_seconds"]
        )
        assert [t["shard_id"] for t in payload["shard_timings"]] == [0, 1, 2]
        assert sum(t["num_vectors"] for t in payload["shard_timings"]) == 120

    def test_build_mode_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["build", "db.npy", "--index", "i.npz", "--keys", "k.npz",
                 "--beta", "1.0", "--build-mode", "turbo"]
            )

    def test_bulk_build_answers_identically(self, cli_workspace, capsys):
        """Same seed, both build modes: the served ids must agree."""
        root, _, _ = cli_workspace
        ids_by_mode = {}
        for mode in ("sequential", "bulk"):
            code = main(
                [
                    "build",
                    str(root / "db.npy"),
                    "--index", str(root / f"{mode}_index.npz"),
                    "--keys", str(root / f"{mode}_keys.npz"),
                    "--beta", "0.2",
                    "--m", "8",
                    "--ef-construction", "40",
                    "--build-mode", mode,
                    "--seed", "1",
                ]
            )
            assert code == 0
            capsys.readouterr()
            code = main(
                [
                    "query",
                    "--index", str(root / f"{mode}_index.npz"),
                    "--keys", str(root / f"{mode}_keys.npz"),
                    "--queries", str(root / "queries.fvecs"),
                    "-k", "5",
                    "--json",
                    "--seed", "2",
                ]
            )
            assert code == 0
            ids_by_mode[mode] = json.loads(capsys.readouterr().out)["ids"]
        assert ids_by_mode["sequential"] == ids_by_mode["bulk"]

    def test_refine_engines_agree_end_to_end(self, cli_workspace, capsys):
        root, _, _ = cli_workspace
        index_path = str(root / "sharded_index.npz")
        keys_path = str(root / "sharded_keys.npz")
        payloads = {}
        for engine in ("heap", "vectorized"):
            code = main(
                [
                    "query",
                    "--index", index_path,
                    "--keys", keys_path,
                    "--queries", str(root / "queries.fvecs"),
                    "-k", "5",
                    "--json",
                    "--refine-engine", engine,
                    "--seed", "2",
                ]
            )
            assert code == 0
            payloads[engine] = json.loads(capsys.readouterr().out)
        assert payloads["heap"]["ids"] == payloads["vectorized"]["ids"]
        assert payloads["heap"]["refine_engine"] == "heap"
        assert payloads["heap"]["refine_kernel_seconds"] == 0.0
        assert (
            payloads["heap"]["refine_comparisons"]
            == payloads["vectorized"]["refine_comparisons"]
        )

    def test_refine_engine_with_filter_only_rejected(self, cli_workspace):
        root, _, _ = cli_workspace
        with pytest.raises(SystemExit, match="no effect"):
            main(
                [
                    "query",
                    "--index", str(root / "index.npz"),
                    "--keys", str(root / "keys.npz"),
                    "--queries", str(root / "queries.fvecs"),
                    "--filter-only",
                    "--refine-engine", "heap",
                ]
            )

    def test_unsupported_format(self, cli_workspace):
        root, _, _ = cli_workspace
        with pytest.raises(SystemExit):
            main(
                [
                    "build",
                    str(root / "db.csv"),
                    "--index", str(root / "x.npz"),
                    "--keys", str(root / "y.npz"),
                    "--beta", "1.0",
                ]
            )


class TestInfo:
    def test_info_human_readable(self, cli_workspace, capsys):
        root, _, _ = cli_workspace
        code = main(["info", "--index", str(root / "sharded_index.npz")])
        assert code == 0
        out = capsys.readouterr().out
        assert "backend=bruteforce" in out
        assert "shards=3 (hash" in out
        assert "build metadata: mode=sequential" in out

    def test_info_json_reports_layout_and_build_metadata(
        self, cli_workspace, capsys
    ):
        root, _, _ = cli_workspace
        code = main(["info", "--index", str(root / "json_index.npz"), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "bruteforce"
        assert payload["shards"] == 3
        assert payload["shard_strategy"] == "round_robin"
        assert sum(payload["shard_sizes"]) == 120
        assert payload["num_vectors"] == 120
        assert payload["live_vectors"] == 120
        assert payload["tombstones"] == 0
        build = payload["build_report"]
        assert build["build_mode"] == "bulk"
        assert "build_workers" not in build
        assert build["encrypt_seconds"] > 0
        assert build["total_seconds"] == pytest.approx(
            build["encrypt_seconds"] + build["build_seconds"]
        )

    def test_info_monolithic_index(self, cli_workspace, capsys):
        root, _, _ = cli_workspace
        code = main(["info", "--index", str(root / "index.npz"), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "hnsw"
        assert payload["shards"] == 1
        assert payload["shard_strategy"] is None
        assert payload["build_report"]["shards"] == 1

    def test_info_reports_tenancy_view(self, cli_workspace, capsys):
        root, _, _ = cli_workspace
        code = main(["info", "--index", str(root / "index.npz"), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tenancy"]["key_ids"] == [payload["dce_key_id"]]
        default = payload["tenancy"]["default_tenant"]
        assert default["key_id"] == payload["dce_key_id"]
        assert default["authenticated"] is False
        assert default["max_in_flight"] is None
        capsys.readouterr()
        main(["info", "--index", str(root / "index.npz")])
        assert (
            f"tenancy: default tenant key_id={payload['dce_key_id']}"
            in capsys.readouterr().out
        )


class TestServe:
    def test_serve_matches_query_ids(self, cli_workspace, capsys):
        root, _, _ = cli_workspace
        common = [
            "--index", str(root / "sharded_index.npz"),
            "--keys", str(root / "sharded_keys.npz"),
            "--queries", str(root / "queries.fvecs"),
            "-k", "5",
            "--json",
            "--seed", "2",
        ]
        code = main(["query", *common])
        assert code == 0
        offline = json.loads(capsys.readouterr().out)
        code = main(["serve", *common, "--max-batch", "2"])
        assert code == 0
        served = json.loads(capsys.readouterr().out)
        assert served["ids"] == offline["ids"]
        assert served["num_queries"] == 3
        assert served["served_qps"] > 0
        metrics = served["metrics"]
        assert metrics["completed"] == 3
        assert metrics["batches"] >= 2  # size cap 2 over 3 queries
        assert set(metrics["stage_seconds"]) >= {"filter", "refine"}

    def test_serve_human_summary(self, cli_workspace, capsys):
        root, _, _ = cli_workspace
        code = main(
            [
                "serve",
                "--index", str(root / "index.npz"),
                "--keys", str(root / "keys.npz"),
                "--queries", str(root / "queries.fvecs"),
                "-k", "5",
                "--rate", "500",
                "--seed", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "served 3 queries" in out
        assert "latency p50/p95/p99" in out


class TestServeTenancy:
    def test_serve_json_reports_tenancy_view(self, cli_workspace, capsys):
        root, _, _ = cli_workspace
        code = main(
            [
                "serve",
                "--index", str(root / "index.npz"),
                "--keys", str(root / "keys.npz"),
                "--queries", str(root / "queries.fvecs"),
                "-k", "5",
                "--json",
                "--seed", "2",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        tenancy = payload["tenancy"]
        assert len(tenancy["key_ids"]) == 1
        tenant = tenancy["tenants"][str(tenancy["key_ids"][0])]
        assert tenant["completed"] == 3
        assert tenant["rejected"] == 0
        assert tenant["max_in_flight"] is None
        assert tenant["in_flight"] == 0

    def test_serve_needs_index_or_connect(self, cli_workspace):
        root, _, _ = cli_workspace
        with pytest.raises(SystemExit, match="--index .*--connect|--connect"):
            main(
                [
                    "serve",
                    "--keys", str(root / "keys.npz"),
                    "--queries", str(root / "queries.fvecs"),
                ]
            )


class TestNetworkServe:
    def test_remote_serve_matches_local_ids(self, cli_workspace, capsys):
        """serve --connect against an in-process listen server: same
        queries, same seed -> bit-identical ids to the local path."""
        from repro.core.persistence import load_index
        from repro.core.roles import CloudServer
        from repro.net import NetServer, TenantConfig

        root, _, _ = cli_workspace
        common = [
            "--keys", str(root / "keys.npz"),
            "--queries", str(root / "queries.fvecs"),
            "-k", "5",
            "--json",
            "--seed", "2",
        ]
        code = main(["serve", "--index", str(root / "index.npz"), *common])
        assert code == 0
        local = json.loads(capsys.readouterr().out)

        index = load_index(str(root / "index.npz"))
        server = CloudServer(index)
        with server.serving_frontend(max_batch_size=32) as frontend:
            with NetServer(
                frontend,
                [TenantConfig(int(index.dce_database.key_id), token="tok")],
            ) as net:
                host, port = net.address
                code = main(
                    [
                        "serve",
                        "--connect", f"{host}:{port}",
                        "--token", "tok",
                        *common,
                    ]
                )
        assert code == 0
        remote = json.loads(capsys.readouterr().out)
        assert remote["ids"] == local["ids"]
        assert remote["remote"] == f"{host}:{port}"
        tenant = remote["tenancy"]["tenants"][
            str(remote["tenancy"]["key_ids"][0])
        ]
        assert tenant["completed"] == 3
        assert tenant["authenticated"] is True

    def test_listen_parser_defaults(self):
        args = build_parser().parse_args(["listen", "--index", "i.npz"])
        assert args.command == "listen"
        assert args.host == "127.0.0.1"
        assert args.tenant == []
        assert args.frame_timeout > 0

    def test_tenant_spec_parsing(self):
        from repro.cli import _parse_tenant_spec

        config = _parse_tenant_spec("42:secret:8")
        assert (config.key_id, config.token, config.max_in_flight) == (
            42, "secret", 8,
        )
        assert _parse_tenant_spec("-7").token is None
        assert _parse_tenant_spec("-7").max_in_flight is None
        assert _parse_tenant_spec("9::3").token is None
        assert _parse_tenant_spec("9::3").max_in_flight == 3
        with pytest.raises(SystemExit):
            _parse_tenant_spec("notakey")
        with pytest.raises(SystemExit):
            _parse_tenant_spec("1:tok:many")
        with pytest.raises(SystemExit):
            _parse_tenant_spec("1:tok:0")

    def test_hostport_parsing(self):
        from repro.cli import _parse_hostport

        assert _parse_hostport("127.0.0.1:7379") == ("127.0.0.1", 7379)
        with pytest.raises(SystemExit):
            _parse_hostport("nocolon")
        with pytest.raises(SystemExit):
            _parse_hostport("host:notaport")


class TestResilienceFlags:
    def test_parser_defaults(self):
        base = ["serve", "--index", "i.npz", "--keys", "k.npz", "--queries", "q.npy"]
        args = build_parser().parse_args(base)
        assert args.deadline_ms is None
        assert args.retries == 0
        args = build_parser().parse_args(
            [*base, "--deadline-ms", "500", "--retries", "3"]
        )
        assert args.deadline_ms == 500
        assert args.retries == 3
        args = build_parser().parse_args(["listen", "--index", "i.npz"])
        assert args.max_connections is None
        args = build_parser().parse_args(
            ["listen", "--index", "i.npz", "--max-connections", "16"]
        )
        assert args.max_connections == 16

    def test_tenant_rate_spec(self):
        from repro.cli import _parse_tenant_spec

        config = _parse_tenant_spec("42:secret:8:25.5")
        assert (config.key_id, config.token, config.max_in_flight) == (
            42, "secret", 8,
        )
        assert config.rate == 25.5
        # Rate without token or quota: empty segments stay unset.
        config = _parse_tenant_spec("9:::2.5")
        assert config.token is None
        assert config.max_in_flight is None
        assert config.rate == 2.5
        with pytest.raises(SystemExit, match="rate"):
            _parse_tenant_spec("1:tok:2:fast")
        with pytest.raises(SystemExit):
            _parse_tenant_spec("1:tok:2:-3.0")  # TenantConfig refuses

    def test_invalid_deadline_and_retries_fail_fast(self, cli_workspace):
        from repro.core.errors import ParameterError

        root, _, _ = cli_workspace
        base = [
            "serve",
            "--index", str(root / "index.npz"),
            "--keys", str(root / "keys.npz"),
            "--queries", str(root / "queries.fvecs"),
        ]
        with pytest.raises(ParameterError, match="deadline-ms"):
            main([*base, "--deadline-ms", "0"])
        with pytest.raises(ParameterError, match="retries"):
            main([*base, "--retries", "-1"])

    def test_serve_retries_needs_connect(self, cli_workspace):
        root, _, _ = cli_workspace
        with pytest.raises(SystemExit, match="connect"):
            main(
                [
                    "serve",
                    "--index", str(root / "index.npz"),
                    "--keys", str(root / "keys.npz"),
                    "--queries", str(root / "queries.fvecs"),
                    "--retries", "2",
                ]
            )

    def test_remote_serve_reports_budget_and_retries(
        self, cli_workspace, capsys
    ):
        from repro.core.persistence import load_index
        from repro.core.roles import CloudServer
        from repro.net import NetServer, TenantConfig

        root, _, _ = cli_workspace
        index = load_index(str(root / "index.npz"))
        server = CloudServer(index)
        with server.serving_frontend() as frontend:
            with NetServer(
                frontend, [TenantConfig(int(index.dce_database.key_id))]
            ) as net:
                host, port = net.address
                code = main(
                    [
                        "serve",
                        "--connect", f"{host}:{port}",
                        "--keys", str(root / "keys.npz"),
                        "--queries", str(root / "queries.fvecs"),
                        "-k", "5",
                        "--json",
                        "--seed", "2",
                        "--deadline-ms", "60000",
                        "--retries", "2",
                    ]
                )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["deadline_ms"] == 60000
        assert payload["client_retries"] == 0  # healthy run: no retries


class TestWorkload:
    def test_workload_json(self, capsys):
        code = main(
            [
                "workload",
                "-n", "200",
                "--queries", "8",
                "--backend", "bruteforce",
                "--beta", "0.5",
                "--max-batch", "4",
                "--json",
                "--seed", "3",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ids_match"] is True
        assert payload["sequential_qps"] > 0
        assert payload["served_qps"] > 0
        assert payload["metrics"]["completed"] == 8

    def test_workload_human_summary(self, capsys):
        code = main(
            ["workload", "-n", "150", "--queries", "4",
             "--backend", "bruteforce", "--beta", "0.5", "--seed", "3"]
        )
        assert code == 0
        assert "ids match" in capsys.readouterr().out


class TestDemo:
    def test_demo_runs(self, capsys):
        code = main(
            ["demo", "--profile", "deep", "-n", "200", "--queries", "3",
             "--beta", "0.5", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Recall@10" in out


class TestJournalAndCompactCLI:
    def _build(self, root, index_path, fmt=None, capsys=None):
        argv = [
            "build",
            str(root / "db.npy"),
            "--index", str(index_path),
            "--keys", str(root / "jkeys.npz"),
            "--beta", "0.2",
            "--m", "8",
            "--ef-construction", "40",
            "--seed", "5",
        ]
        if fmt is not None:
            argv += ["--format", fmt]
        assert main(argv) == 0
        if capsys is not None:
            capsys.readouterr()

    def test_journaled_build_query_info_compact(self, cli_workspace, capsys):
        from repro.core.journal import IndexJournal
        from repro.core.maintenance import delete_vector

        root, database, queries = cli_workspace
        store = root / "store"
        self._build(root, store, fmt="journal", capsys=capsys)
        assert store.is_dir()

        # Mutations append delta segments instead of rewriting the base.
        journal = IndexJournal.open(store)
        index = journal.load()
        delete_vector(index, 3, journal=journal)
        delete_vector(index, 9, journal=journal)

        code = main(["info", "--index", str(store), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tombstones"] == 2
        assert payload["journal"]["generation"] == 0
        assert payload["journal"]["num_segments"] == 2
        assert payload["journal"]["journal_bytes"] > 0

        # Queries load the store directory like any index path.
        code = main(
            ["query", "--index", str(store), "--keys", str(root / "jkeys.npz"),
             "--queries", str(root / "queries.fvecs"), "-k", "3", "--json"]
        )
        assert code == 0
        ids = json.loads(capsys.readouterr().out)["ids"]
        assert all(3 not in row and 9 not in row for row in ids)

        code = main(["compact", "--index", str(store), "--seed", "7", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tombstones_dropped"] == 2
        assert report["journal"] == {"generation": 1, "num_segments": 0}
        assert report["live_vectors"] == 118

        code = main(["info", "--index", str(store), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tombstones"] == 0
        assert payload["live_vectors"] == 118
        assert payload["journal"]["generation"] == 1

    def test_compact_rewrites_npz_in_place(self, cli_workspace, capsys):
        from repro.core.maintenance import delete_vector
        from repro.core.persistence import load_index, save_index

        root, database, queries = cli_workspace
        index_path = root / "compactable.npz"
        self._build(root, index_path, capsys=capsys)

        index = load_index(index_path)
        delete_vector(index, 0)
        save_index(index_path, index)

        code = main(["compact", "--index", str(index_path), "--seed", "7"])
        assert code == 0
        assert "dropped 1 tombstones" in capsys.readouterr().out
        reloaded = load_index(index_path)
        assert reloaded.tombstones == frozenset()
        assert reloaded.retired == {0}

        # Idempotent: a second run has nothing to do.
        code = main(["compact", "--index", str(index_path)])
        assert code == 0
        assert "nothing to compact" in capsys.readouterr().out

    def test_npz_index_reports_no_journal(self, cli_workspace, capsys):
        root, _, _ = cli_workspace
        index_path = root / "plain.npz"
        self._build(root, index_path, capsys=capsys)
        code = main(["info", "--index", str(index_path), "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["journal"] is None
