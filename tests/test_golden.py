"""Byte-identity gate: sha256 of every primary CLI output on a fixed corpus.

The corpus is the worked sample plus a generated small (k=10) and medium
(k=25) instance at fixed seeds.  Each runs through `gen` (generated ones
only), `analyze`, `solve` with configs r/c/a (schedule JSON, .sol and report
CSV) and `export` as LP and as MPS with its names sidecar in plain mode,
plus one LP with valid inequalities and one strong-forcing MPS.  A generated
small (k=10) instance at seed 2 adds its three `solve` outputs with configs
r/c/a: its closed lone cycles sit between merged ones, so it sees the order
of a schedule's cycles.  A generated large (k=30) instance adds the plain LP, the plain MPS and the strong-forcing
MPS of a model about six times the sample's, and its config-a `.sol`.
A generated very_large (k=90) instance adds its plain MPS and sidecar, the
largest model the toolkit is timed on.

`check` is pinned too: on every instance's config-a `.sol` and on the same
file with its first `d_v` line dropped, the hash covers the verdict's
`feasible`, `objective` (its float repr, so the summation order counts),
`violations`, `violation_count` and `summary`.  Manifests carry wall-clock
telemetry and are not pinned.  One more hash covers the `solve` schedule
JSON and `.sol` of every size class, k option, seeds 1-2 and configs r/c/a.
A refactor must leave every hash unchanged; a deliberate output change
updates the table in the same commit.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from cssnd.cli import main
from cssnd.instgen import size_class
from cssnd.io import save_instance
from tests.conftest import make_sample_instance

GENERATED = {"small10": ("small", 10, 7), "medium25": ("medium", 25, 11)}
SOLVED = {"small10s2": ("small", 10, 2)}
LARGE = {"large30": ("large", 30, 13)}
VERY_LARGE = {"verylarge90": ("xlarge", 90, 42)}

# (variant, format, flags): both formats in plain mode, each variant once.
EXPORTS = [
    ("plain", "lp", []),
    ("plain", "mps", []),
    ("vi", "lp", ["--vi", "gamma,phi", "--nearopt", "23", "--lambda", "0.25"]),
    ("strong", "mps", ["--strong-forcing"]),
]
LARGE_EXPORTS = [e for e in EXPORTS if e[0] != "vi"]
VERY_LARGE_EXPORTS = [("plain", "mps", [])]
VERDICT_FIELDS = ("feasible", "objective", "violations", "violation_count",
                  "summary")

GOLDEN = {
    "large30.a.check":
        "0e3aec50bcd897b5f36698b7295b646259bc748868737ab536f5fa2a4d5fb3dd",
    "large30.a.nodv.check":
        "5e23bc0347c3acc88529e79337ed06b5b5239ac96a219564c12a1071c95acbd6",
    "large30.a.sol":
        "f0771bdc812f2f9a81fb922ff8c515d20b8d2e880609d03983479de65581d605",
    "large30.json":
        "4bf754df785581d203aa8fa378dec77bec9ff37902fa9b46b9012aa0be1d493e",
    "large30.plain.lp":
        "8797607adc75c89a132a669c99b70f5e52c5af74242392baf1b3565ecbbb5619",
    "large30.plain.mps":
        "747faa206e0f08784eb7e50796cea6546d0f3b085e33d7e4d1752b6c1d6449c0",
    "large30.plain.mps.names.json":
        "b2417eb6bf0eada1817d32f52abdb241ecfe33ec39769f7e3b51bb57220cd3dc",
    "large30.strong.mps":
        "78fe990fe04a0b3cd75f2d013425eb7a8bd32ec7ce8217e31493042c6f410a87",
    "large30.strong.mps.names.json":
        "ce9e36985a8847e717800eb0e01af2346bdc73d4639494007b4137783994156b",
    "medium25.a.check":
        "75c975e68854dac736623fd95219234ec3c8e8af11eaec0740a96cb39b9967f1",
    "medium25.a.csv":
        "183c725ef3b91514bcbdfabf0573a9a0374d0cdb467c250f1198dc992fa12da2",
    "medium25.a.json":
        "b04d03ac125b2c3ef6a61d8e9a4e14422252abadf0c681e0e2cb02524900a14b",
    "medium25.a.nodv.check":
        "31513a8946599cc4714931665e7b0a75db773ed2eaf3bb8db685aba814a1e415",
    "medium25.a.sol":
        "a22e83c87d6c1c33912da9457d6dd7482fe644030217b9f9d3fae56fd1b18819",
    "medium25.c.csv":
        "7a55b24c5cd03a144491cec6213bd2112d452bd42a68413a8abe0e5e83476fea",
    "medium25.c.json":
        "211156ef58be4e305a3082c981557f68ff9bde85a9cee4835b4a8ee3e293d2f2",
    "medium25.c.sol":
        "38280475316d86541cd5c294cbc57f212374d42c7a814ce99dd26859219b3f2a",
    "medium25.json":
        "77278e5932e72f9144281077851435d815c8f420e7ab331308cde836ace50707",
    "medium25.phi.csv":
        "1e260ef157072661928c32f781554d0fbd38a8881ce46a8031791602f059c898",
    "medium25.plain.lp":
        "375cd95ea01fcc8562f4363cdbcecb7bd8937f26965e4373bd5df37f34362263",
    "medium25.plain.mps":
        "a2db882079ee9f689eff196e88dfa71fa5026c50238f242a6d8c24c709e24a09",
    "medium25.plain.mps.names.json":
        "ca996854d5d5d754882a424270c7480b57959091ba387fd06da6d79397dc321d",
    "medium25.r.csv":
        "3b448e7a7be287cd32ba762913f2e30cf369fa879dda29e789e5fa414f816c22",
    "medium25.r.json":
        "83edc01bc00599502bb82f54f5b52314e1a4a84ca37fb7bc9ee7f6d993664216",
    "medium25.r.sol":
        "59e14a02cc8b50d273c6a9bc9091c1d9cde233eb53fdc63740ec8dc90dac19e6",
    "medium25.strong.mps":
        "bb4d29e46e39ae5f972db4c629db71f438477398a83015bcee506e05e1786347",
    "medium25.strong.mps.names.json":
        "9e2b8ba534da73f9eb4913b7fa59a9ca451415f6fd4e0ce5b71704ad0020b3e4",
    "medium25.vi.lp":
        "e9701cbc9491662c5488539c5804a58aedd64ba9b3d1bdac1ac284b5b923551a",
    "sample.a.check":
        "7c366ff43c09f572c7c786837877dfbee538ffaa73d92b242d07e9e613dce9d5",
    "sample.a.csv":
        "f1bb4a53077c34d96e130fb9c3a52d75fe40355942077e24bc5441a86f6f6166",
    "sample.a.json":
        "2d152a57675260faa534e2c8e0279def39b642230ae6136c5f926e380622f1e1",
    "sample.a.nodv.check":
        "7fd4b5498ade0c24faa68e955395c3c4c65c917147817470f0b3f436b35a05b6",
    "sample.a.sol":
        "79f7f8955317fec972f9612b08d68d51c203e939fff20a1611df60dffa728082",
    "sample.c.csv":
        "5596083f2e065fb7bda6b06f16f6f1bfa9a641e24d57b5fee5c6201f591d5d38",
    "sample.c.json":
        "30830b6a7b7cc8a28785c38ca608a029e081505eea02e5c450cff46fdc45b1b5",
    "sample.c.sol":
        "83dd19ef93a9ed1bad9900ffde0a23ce084e7112af4127710525334c0c2195a3",
    "sample.phi.csv":
        "150509422cf7b3380e30ce57349f9212ec9be74ce3ab0cd52c4a54ee8923f3dc",
    "sample.plain.lp":
        "37c353b81aeb7c89b415bbb37dd8b5ccbcf2d407f3becf1f080213873609cccf",
    "sample.plain.mps":
        "200e27c1099c50f4bfb4d8e9ee642cef7dc6cc59c9da99570ebf082f9ede5eb1",
    "sample.plain.mps.names.json":
        "92ff70d65caaac097caabc581e61b47c90c641d3dd950a9c4d5a68bc3a17c170",
    "sample.r.csv":
        "c3eb4483909729277e024a17d614f69ded8ee56208225be313a36020f0ada2b9",
    "sample.r.json":
        "9c051813dc7f5ab53a741e722149ce79ad3b988a9d01a9747d6bc8c0a193d0c0",
    "sample.r.sol":
        "242a70053d6d4e238b939252561b7ea5b0e684cbc7366aad0169ee8bb5aa5c1e",
    "sample.strong.mps":
        "f67e2dc239c8460fb206e6df1cfcea74e7fc698ad43d9b46453e4949cf4af9b8",
    "sample.strong.mps.names.json":
        "0ba6c3bdd8942452707128c68aa5c956cabf7d8575d9fe00b9b560f5e3cb0586",
    "sample.vi.lp":
        "b8fed1e4356a4fcaed3c5fb4b954f163415a787ef353b70e313425378f921ad6",
    "small10.a.check":
        "695ee9e0009beba856147fc45a6574b89eefa8cd8110807bd3b5d3f813e40591",
    "small10.a.csv":
        "392ebb0875da1c9e0f3325678d48d4ad56611691d7de343919fe01476d6b1fac",
    "small10.a.json":
        "d5996c77d6e70ba346b7c20e637724ea24958426819f1bcbcda4cae24344622d",
    "small10.a.nodv.check":
        "e3dd4c09e2bbc74c046953fcee8889ae845bd70971fc61becc4abf8232f88c13",
    "small10.a.sol":
        "4ff83eae414f0a67c9750a7d44b3339474a3face635ce35a87c61a80a6e78f9c",
    "small10.c.csv":
        "808be0aa62afc4100462f3b19332f7ace61db357972611da0957b8ef4ffc201f",
    "small10.c.json":
        "2098b28f84975f16fa3c402dfe9a29d4cebd987d9dc7b02d7b8cf4b1ec89a8f0",
    "small10.c.sol":
        "b034a278f6cfb31263ef4f9ccf7cd2bd30ce8a7b83a359ac182aac4abcf6891a",
    "small10.json":
        "54ca122bffd6daf033e35e6abe5a4bcb7cdda0e6021c6f97c55f56d577c0e06a",
    "small10.phi.csv":
        "08c18f33f51bf6ad19a21c3c5d1f9f07ec02a13eaa7b6c701739e399f132296f",
    "small10.plain.lp":
        "5a7d93fb09bd5ac53a77a2964b60ab0ab6727bb333273fbf5636ac63ebd0bfaa",
    "small10.plain.mps":
        "0d2751486080ac1aeee8998e3ec8c22b4339ac6a0131b7ebad853b3bf752a6a7",
    "small10.plain.mps.names.json":
        "e42d4ebb83bd973a61b053248e9e309a8ee148eb3733748fa3822d29b0b51822",
    "small10.r.csv":
        "4d595a25d278e97dddab1ee039a54c7ea93e7a90efe7bc56a1fb9070d3469419",
    "small10.r.json":
        "3082ea09db91cf304304d16fff00a9100318c15dc3986b1744b358c6e2692d6f",
    "small10.r.sol":
        "3d0920c086a03d7eab8a3a941addb090d0920fb182ce5e20f32af0ac80cf1da5",
    "small10.strong.mps":
        "52b5b5ae2eb3b6afb4fa49775e25b2c157e6c57df1c9cec8510f492dcb977efa",
    "small10.strong.mps.names.json":
        "ea404f352eba8e5e70822321fc80c8204df908d1d89f2e4ee112d4885b068ac1",
    "small10.vi.lp":
        "a908ac51026b2633399a68cb99d77f62930182cce36357e4064bc9d1e69ae8d3",
    "small10s2.a.csv":
        "210e5115e9ea26769d2112b8b20e874eb525e1b750a95b2f9f9472e5a4e9bb63",
    "small10s2.a.json":
        "239ba8f53b5118ec81ab2c8acc91017bf078355a53dcd21910321c61777ed3fc",
    "small10s2.a.sol":
        "c36c1aa21cdd4b03b9a381c8a9939aa369d8ff069067f588c40dfe5d64e4f0e7",
    "small10s2.c.csv":
        "2504ed89de597949c2c84cfa246f8493e8e909c948255300f1df556549fd4483",
    "small10s2.c.json":
        "fb954dc1d25282e7d4c8d06ec60f81e2e09897126f51d34c1a7608950550cc76",
    "small10s2.c.sol":
        "421e299f62dd6fa3b4c4f7530e425be1464e6d183fb82e2242dfdafaba1d597d",
    "small10s2.r.csv":
        "0b5e83b13d061587bc7d9494021d30db1bf059226fa0bbe5108939d75c98ce96",
    "small10s2.r.json":
        "87ab5b68ebc8a2ff1bfb782f79b53e5e00634c1ae047668537065940c0f31138",
    "small10s2.r.sol":
        "42db8f972baa3dda3ecbf4adb07876269991004c73e2b151b6391b6928c7dec2",
    "verylarge90.plain.mps":
        "74b38a135c77757e49d7f61f29931895cd68e966a6f861c8184b60405a2a5c21",
    "verylarge90.plain.mps.names.json":
        "e43240b2e2cd8b3352d00d570fa0fdf58d24d13ac87617e90845711d6123f611",
}


def _run(argv, code=0) -> str:
    """Run one CLI command, assert its exit code, return its stdout."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == code, argv
    return out.getvalue()


def _export(root, name, exports) -> list[str]:
    files = []
    for variant, fmt, flags in exports:
        out = f"{name}.{variant}.{fmt}"
        _run(["export", "--in", str(root / f"{name}.json"), "--format", fmt,
              *flags, "--out", str(root / out)])
        files.append(out)
        if fmt == "mps":
            files.append(f"{out}.names.json")
    return files


def _solve(root, name) -> list[str]:
    """Solve with configs r/c/a, writing the schedule JSON, .sol and report
    CSV of each."""
    files = []
    for config in "rca":
        stem = f"{name}.{config}"
        _run(["solve", "--in", str(root / f"{name}.json"), "--config", config,
              "--out", str(root / f"{stem}.json"),
              "--sol", str(root / f"{stem}.sol"),
              "--report", str(root / f"{stem}.csv")])
        files += [f"{stem}.json", f"{stem}.sol", f"{stem}.csv"]
    return files


def _verdicts(root, name) -> dict[str, str]:
    """sha256 of the pinned verdict fields of `check` on the config-a .sol
    and on the same .sol with its first d_v line dropped."""
    inst = str(root / f"{name}.json")
    lines = (root / f"{name}.a.sol").read_text().splitlines(True)
    del lines[next(i for i, line in enumerate(lines) if line.startswith("d_v"))]
    (root / f"{name}.a.nodv.sol").write_text("".join(lines))
    hashes = {}
    for stem, code in ((f"{name}.a", 0), (f"{name}.a.nodv", 1)):
        verdict = json.loads(_run(["check", "--in", inst, "--sol",
                                   str(root / f"{stem}.sol")], code))
        pinned = json.dumps({k: verdict[k] for k in VERDICT_FIELDS},
                            sort_keys=True)
        hashes[f"{stem}.check"] = hashlib.sha256(pinned.encode()).hexdigest()
    return hashes


def _produce(root) -> dict[str, str]:
    """Run the whole corpus under `root`; map output name -> sha256."""
    files = []
    save_instance(make_sample_instance(), root / "sample.json")
    for name, (size, k, seed) in {**GENERATED, **LARGE}.items():
        _run(["gen", "--size", size, "--k", str(k), "--seed", str(seed),
              "--out", str(root / f"{name}.json")])
        files.append(f"{name}.json")
    for name in ["sample", *GENERATED]:
        inst = str(root / f"{name}.json")
        _run(["analyze", "--in", inst, "--out", str(root / f"{name}.phi.csv")])
        files.append(f"{name}.phi.csv")
        files += _solve(root, name)
        files += _export(root, name, EXPORTS)
    for name, (size, k, seed) in SOLVED.items():
        _run(["gen", "--size", size, "--k", str(k), "--seed", str(seed),
              "--out", str(root / f"{name}.json")])
        files += _solve(root, name)
    for name in LARGE:
        _run(["solve", "--in", str(root / f"{name}.json"), "--config", "a",
              "--sol", str(root / f"{name}.a.sol")])
        files.append(f"{name}.a.sol")
        files += _export(root, name, LARGE_EXPORTS)
    for name, (size, k, seed) in VERY_LARGE.items():
        _run(["gen", "--size", size, "--k", str(k), "--seed", str(seed),
              "--out", str(root / f"{name}.json")])
        files += _export(root, name, VERY_LARGE_EXPORTS)
    hashes = {
        f: hashlib.sha256((root / f).read_bytes()).hexdigest() for f in files
    }
    for name in ["sample", *GENERATED, *LARGE]:
        hashes.update(_verdicts(root, name))
    return hashes


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return _produce(tmp_path_factory.mktemp("golden"))


def test_corpus_lists_every_pinned_output(produced):
    assert sorted(produced) == sorted(GOLDEN)


@pytest.mark.parametrize("output", sorted(GOLDEN))
def test_output_is_byte_identical(produced, output):
    assert produced[output] == GOLDEN[output]


def _sweep(root) -> str:
    """One sha256 over the schedule JSON and .sol of `solve` with configs
    r/c/a on every size class and k option at seeds 1-2 (72 solves): many
    more merges, shifted merges and mixes than the corpus above."""
    sha = hashlib.sha256()
    for size in ("small", "medium", "large", "xlarge"):
        for k in size_class(size).k_options:
            for seed in (1, 2):
                inst = root / f"{size}-k{k}-s{seed}.json"
                _run(["gen", "--size", size, "--k", str(k), "--seed",
                      str(seed), "--out", str(inst)])
                for config in "rca":
                    schedule, sol = root / "schedule.json", root / "schedule.sol"
                    _run(["solve", "--in", str(inst), "--config", config,
                          "--out", str(schedule), "--sol", str(sol)])
                    sha.update(f"{inst.name}/{config}\n".encode())
                    sha.update(schedule.read_bytes())
                    sha.update(sol.read_bytes())
    return sha.hexdigest()


SWEEP_GOLDEN = (
    "6c93aec7b6c0be46c03d623bae40771406fffe5435282c3d7841872bfc7e9294"
)


def test_solve_sweep_is_byte_identical(tmp_path):
    assert _sweep(tmp_path) == SWEEP_GOLDEN
