"""Per-figure/table experiment definitions.

Every experiment mirrors one table or figure of the paper's evaluation:
same protocols, same workload grouping (inter- vs intra-workgroup), same
normalizations (MESI baseline for Figs. 8/9, RCC-SC baseline for Fig. 10,
-R / -P baselines for Fig. 7). Absolute cycle counts differ from the
paper's GPGPU-Sim testbed; the *shape* — who wins, by what factor — is the
reproduction target, and each experiment records the paper's headline
number next to the measured one.
"""

from __future__ import annotations

from statistics import geometric_mean
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.config import GPUConfig
from repro.exec import SimCell, SweepExecutor, canonical_overrides
from repro.harness.complexity import PAPER_TABLE_V, \
    implementation_states, table_v_rows
from repro.harness.tables import render_table
from repro.sim.results import SimResult
from repro.workloads import WORKLOADS, inter_workgroup

#: Fixed lease lengths of the Sec. III-E spread (predictor off).
FIXED_LEASES = (16, 64, 256, 1024)

#: One sweep cell as the experiments name it: (protocol, workload) or
#: (protocol, workload, ts-override dict).
RunSpec = Tuple[Any, ...]


class ExperimentResult:
    """Rows of one regenerated table/figure plus its checked claims."""

    def __init__(self, name: str, title: str, columns: List[str]):
        self.name = name
        self.title = title
        self.columns = columns
        self.rows: List[List[Any]] = []
        #: claim -> (paper value, measured value, verdict)
        self.claims: Dict[str, Tuple[str, str, bool]] = {}
        self.notes: List[str] = []

    def add_row(self, *cells: Any) -> None:
        self.rows.append(list(cells))

    def claim(self, description: str, paper: str, measured: str,
              holds: bool) -> None:
        """Record one of the paper's shapes: ``description`` names the
        check, ``holds`` is its verdict on the ``measured`` numbers."""
        self.claims[description] = (paper, measured, bool(holds))

    def render(self) -> str:
        out = [render_table(self.columns, self.rows, title=self.title)]
        if self.claims:
            out.append("")
            out.append("paper vs measured:")
            for desc, (paper, measured, holds) in self.claims.items():
                out.append(f"  {desc}: paper {paper} | measured {measured}"
                           f" | holds: {verdict(holds)}")
        for note in self.notes:
            out.append(f"note: {note}")
        return "\n".join(out)


def verdict(holds: bool) -> str:
    """How reports spell a claim's verdict."""
    return "yes" if holds else "NO"


class Harness:
    """Runs and caches the simulations behind all experiments.

    All simulation runs — single cells and whole figure grids alike —
    route through one :meth:`run_cells` entry point on the sweep executor
    (:mod:`repro.exec`), so ``--jobs N`` parallelism and the on-disk
    result cache apply uniformly to every experiment. The default
    executor is serial and cache-less, which reproduces the historical
    in-process behavior exactly.
    """

    def __init__(self, cfg: Optional[GPUConfig] = None,
                 intensity: float = 0.25, seed: int = 1234,
                 executor: Optional[SweepExecutor] = None):
        self.cfg = cfg or GPUConfig.bench()
        self.intensity = intensity
        self.seed = seed
        self.executor = executor or SweepExecutor()
        self._cache: Dict[Tuple, SimResult] = {}

    # ------------------------------------------------------------------
    def _canon(self, spec: RunSpec) -> Tuple[str, str, Tuple]:
        protocol, workload = spec[0], spec[1]
        overrides = spec[2] if len(spec) > 2 else None
        return protocol, workload, canonical_overrides(overrides)

    def _key(self, protocol: str, workload: str, overrides: Tuple) -> Tuple:
        return (protocol, workload, self.intensity, self.seed, overrides)

    def _cell(self, protocol: str, workload: str,
              overrides: Tuple) -> SimCell:
        return SimCell(cfg=self.cfg, protocol=protocol, workload=workload,
                       intensity=self.intensity, seed=self.seed,
                       ts_overrides=overrides)

    def prefetch(self, specs: Iterable[RunSpec]) -> None:
        """Run every not-yet-cached spec as one batch on the executor.

        Every experiment declares its full simulation grid up front via
        this method, which is what lets ``--jobs N`` fan the independent
        cells out over worker processes.
        """
        todo: Dict[Tuple, SimCell] = {}
        for spec in specs:
            protocol, workload, overrides = self._canon(spec)
            key = self._key(protocol, workload, overrides)
            if key not in self._cache and key not in todo:
                todo[key] = self._cell(protocol, workload, overrides)
        if not todo:
            return
        results = self.executor.run_cells(list(todo.values()))
        for key, result in zip(todo, results):
            self._cache[key] = result

    def run_cells(self, specs: Iterable[RunSpec]) -> List[SimResult]:
        """Run (or replay) the given specs; results in input order."""
        specs = list(specs)
        self.prefetch(specs)
        return [self._cache[self._key(*self._canon(s))] for s in specs]

    def run(self, protocol: str, workload: str,
            ts_overrides: Optional[Dict[str, Any]] = None) -> SimResult:
        overrides = canonical_overrides(ts_overrides)
        key = self._key(protocol, workload, overrides)
        if key not in self._cache:
            self.prefetch([(protocol, workload, ts_overrides)])
        return self._cache[key]

    def sweep(self, protocols: List[str], workloads: List[str],
              **kw) -> Dict[Tuple[str, str], SimResult]:
        ts_overrides = kw.get("ts_overrides")
        specs = [(p, w, ts_overrides) for w in workloads for p in protocols]
        results = self.run_cells(specs)
        return {(p, w): res
                for (p, w, _), res in zip(specs, results)}

    @staticmethod
    def _gmean(values: List[float]) -> float:
        return geometric_mean([max(v, 1e-12) for v in values])

    # ------------------------------------------------------------------
    # Figure 1 — motivation: SC stalls and store latencies under MESI-WT
    # ------------------------------------------------------------------
    def fig1(self) -> ExperimentResult:
        exp = ExperimentResult(
            "fig1",
            "Fig. 1 - SC overheads under the MESI-WT baseline "
            "(a: % mem ops SC-stalled; b: % stall cycles due to a prior "
            "store; c: load/store latency; d: SC-ideal speedup)",
            ["workload", "class", "stall_frac", "store_blame",
             "ld_lat", "st_lat", "st/ld", "ideal_speedup"],
        )
        self.prefetch([(p, w) for w in WORKLOADS
                       for p in ("MESI", "SC-IDEAL")])
        inter_ratio, inter_speedup, intra_speedup = [], [], []
        blame = {}
        for name in WORKLOADS:
            base = self.run("MESI", name)
            ideal = self.run("SC-IDEAL", name)
            cat = WORKLOADS[name].category
            ratio = (base.avg_store_latency / base.avg_load_latency
                     if base.avg_load_latency else 0.0)
            speedup = base.cycles / ideal.cycles
            blame[name] = base.sc_stall_store_fraction
            exp.add_row(name, cat, base.sc_stall_fraction, blame[name],
                        base.avg_load_latency, base.avg_store_latency,
                        ratio, speedup)
            if cat == "inter":
                inter_ratio.append(ratio)
                inter_speedup.append(speedup)
            else:
                intra_speedup.append(speedup)
        exp.claim("SC stall cycles blamed on a prior store, dlb and stn "
                  "above 0.5 (Fig 1b)", "most stall cycles",
                  f"dlb {blame['dlb']:.2f}, stn {blame['stn']:.2f}",
                  blame["dlb"] > 0.5 and blame["stn"] > 0.5)
        slower = sum(1 for r in inter_ratio if r > 1.0)
        exp.claim("stores slower than loads on at least 4 of 6 inter-wg "
                  "workloads (Fig 1c)", "2.4x gmean (up to 3.7x)",
                  f"{slower} of {len(inter_ratio)}, "
                  f"gmean {self._gmean(inter_ratio):.2f}x", slower >= 4)
        g_inter = self._gmean(inter_speedup)
        g_intra = self._gmean(intra_speedup)
        exp.claim("SC-ideal speedup gmean, inter-wg above intra-wg (Fig 1d)",
                  "1.6x vs ~1.0x", f"{g_inter:.2f}x vs {g_intra:.2f}x",
                  g_inter > g_intra)
        exp.claim("SC-ideal speedup gmean, intra-wg within 0.9-1.15x "
                  "(Fig 1d)", "~1.0x", f"{g_intra:.2f}x",
                  0.9 < g_intra < 1.15)
        return exp

    # ------------------------------------------------------------------
    # Figure 6 — expired L1 copies and renewability under RCC
    # ------------------------------------------------------------------
    def fig6(self) -> ExperimentResult:
        exp = ExperimentResult(
            "fig6",
            "Fig. 6 - loads finding V-but-expired blocks (left) and the "
            "fraction of expired refetches the L2 can renew (right), RCC",
            ["workload", "class", "expired_frac", "renewable_frac"],
        )
        self.prefetch([("RCC", w) for w in WORKLOADS])
        expired, renewable = [], []
        for name in WORKLOADS:
            res = self.run("RCC", name)
            cat = WORKLOADS[name].category
            exp.add_row(name, cat, res.l1_expired_fraction,
                        res.renewable_fraction)
            if cat == "inter":
                expired.append(res.l1_expired_fraction)
                if res.l1_expired_fraction > 0.02:
                    renewable.append(res.renewable_fraction)
        exp.claim("inter-wg sharing expires L1 copies: some inter-wg "
                  "expired fraction above 0.02 (Fig 6 left)",
                  "real expirations", f"max {max(expired):.3f}",
                  max(expired) > 0.02)
        # Averaged only where copies really expire: a workload with almost
        # no expired loads has no meaningful renewable fraction.
        avg = sum(renewable) / len(renewable) if renewable else 0.0
        exp.claim("expired loads renewable, inter-wg avg over workloads "
                  "with expired fraction above 0.02, above 0.3 "
                  "(Fig 6 right)", "most are premature/renewable",
                  f"avg {avg:.2f} over {len(renewable)} workloads",
                  avg > 0.3)
        return exp

    # ------------------------------------------------------------------
    # Figure 7 — renew mechanism (-R/+R) and lease predictor (-P/+P)
    # ------------------------------------------------------------------
    def fig7(self) -> ExperimentResult:
        exp = ExperimentResult(
            "fig7",
            "Fig. 7 - interconnect traffic with/without RENEW (left) and "
            "expired reads with/without the lease predictor (right), RCC, "
            "inter-workgroup workloads; plus the cycle spread over fixed "
            f"leases {'/'.join(map(str, FIXED_LEASES))} (Sec. III-E)",
            ["workload", "traffic(-R)", "traffic(+R)", "+R/-R",
             "expired(-P)", "expired(+P)", "+P/-P", "fixed-lease spread"],
        )
        no_renew = {"renew_enabled": False}
        no_predictor = {"predictor_enabled": False}
        fixed = [dict(no_predictor, lease_min=lease, lease_default=lease,
                      lease_max=lease) for lease in FIXED_LEASES]
        self.prefetch([("RCC", w, ov) for w in inter_workgroup()
                       for ov in [None, no_renew, no_predictor] + fixed])
        traffic_ratios, expired_ratios, spreads = [], [], []
        for name in inter_workgroup():
            plus = self.run("RCC", name)
            minus_r = self.run("RCC", name, ts_overrides=no_renew)
            minus_p = self.run("RCC", name, ts_overrides=no_predictor)
            t_ratio = plus.total_flits / max(1, minus_r.total_flits)
            e_ratio = (plus.l1_expired_fraction
                       / max(1e-9, minus_p.l1_expired_fraction))
            cycles = [self.run("RCC", name, ts_overrides=ov).cycles
                      for ov in fixed]
            spread = max(cycles) / min(cycles)
            exp.add_row(name, minus_r.total_flits, plus.total_flits,
                        t_ratio, minus_p.l1_expired_fraction,
                        plus.l1_expired_fraction, e_ratio, spread)
            traffic_ratios.append(t_ratio)
            expired_ratios.append(e_ratio)
            spreads.append(spread)
        g_traffic = self._gmean(traffic_ratios)
        exp.claim("RENEW cuts inter-wg traffic: gmean +R/-R at most +0.5%, "
                  "and below 1 on some workload (Fig 7 left)", "-15%",
                  f"{(g_traffic - 1) * 100:+.1f}%, "
                  f"min {min(traffic_ratios):.3f}",
                  g_traffic <= 1.005 and min(traffic_ratios) < 1.0)
        g_expired = self._gmean(expired_ratios)
        exp.claim("predictor does not inflate expired reads: gmean +P/-P "
                  "below +3% (Fig 7 right)", "-31%",
                  f"{(g_expired - 1) * 100:+.1f}%", g_expired < 1.03)
        exp.claim("fixed-lease cycle spread, worst inter-wg workload below "
                  "1.35x (Sec. III-E)", "negligible",
                  f"{max(spreads):.3f}x", max(spreads) < 1.35)
        return exp

    # ------------------------------------------------------------------
    # Figure 8 — SC stalls and stall-resolve latency vs MESI
    # ------------------------------------------------------------------
    def fig8(self) -> ExperimentResult:
        exp = ExperimentResult(
            "fig8",
            "Fig. 8 - SC issue-stall cycles (top) and stall resolve "
            "latency (bottom), normalized to MESI-WT",
            ["workload", "class", "stalls_TCS/MESI", "stalls_RCC/MESI",
             "resolve_TCS/MESI", "resolve_RCC/MESI"],
        )
        sc_protos = ("MESI", "TCS", "RCC")
        self.prefetch([(p, w) for w in inter_workgroup()
                       for p in sc_protos])
        rel_stall = {"TCS": [], "RCC": []}
        rel_resolve = {"TCS": [], "RCC": []}
        for name in inter_workgroup():
            res = {p: self.run(p, name) for p in sc_protos}
            base_stall = max(1, res["MESI"].sc_stall_cycles)
            base_resolve = max(1e-9, res["MESI"].sc_stall_resolve_latency)
            for p in rel_stall:
                rel_stall[p].append(res[p].sc_stall_cycles / base_stall)
                rel_resolve[p].append(
                    res[p].sc_stall_resolve_latency / base_resolve)
            exp.add_row(name, "inter", rel_stall["TCS"][-1],
                        rel_stall["RCC"][-1], rel_resolve["TCS"][-1],
                        rel_resolve["RCC"][-1])
        g_stall_rcc = self._gmean(rel_stall["RCC"])
        g_stall_tcs = self._gmean(rel_stall["TCS"])
        g_res_rcc = self._gmean(rel_resolve["RCC"])
        g_res_tcs = self._gmean(rel_resolve["TCS"])
        exp.claim("RCC cuts SC stall cycles vs MESI, inter-wg gmean "
                  "(Fig 8 top)", "-52%", f"{(g_stall_rcc - 1) * 100:+.1f}%",
                  g_stall_rcc < 1.0)
        exp.claim("RCC cuts SC stall cycles vs TCS, inter-wg gmean "
                  "(Fig 8 top)", "-25%",
                  f"{(g_stall_rcc / g_stall_tcs - 1) * 100:+.1f}%",
                  g_stall_rcc < g_stall_tcs)
        exp.claim("RCC resolves SC stalls faster than MESI, inter-wg gmean "
                  "(Fig 8 bottom)", "-35%", f"{(g_res_rcc - 1) * 100:+.1f}%",
                  g_res_rcc < 1.0)
        exp.claim("RCC resolves SC stalls faster than TCS, inter-wg gmean "
                  "(Fig 8 bottom)", "-11%",
                  f"{(g_res_rcc / g_res_tcs - 1) * 100:+.1f}%",
                  g_res_rcc < g_res_tcs)
        return exp

    # ------------------------------------------------------------------
    # Figure 9 — performance, energy, traffic vs the MESI baseline
    # ------------------------------------------------------------------
    def fig9(self) -> ExperimentResult:
        exp = ExperimentResult(
            "fig9",
            "Fig. 9 - (a) speedup, (b) interconnect energy, (c) traffic, "
            "all normalized to MESI-WT",
            ["workload", "class", "speedup_TCS", "speedup_TCW",
             "speedup_RCC", "energy_TCS", "energy_TCW", "energy_RCC",
             "traffic_TCS", "traffic_TCW", "traffic_RCC"],
        )
        protos = ("MESI", "TCS", "TCW", "RCC")
        self.prefetch([(p, w) for w in WORKLOADS for p in protos])
        speed = {p: {"inter": [], "intra": []} for p in ("TCS", "TCW", "RCC")}
        energy = {p: {"inter": [], "intra": []} for p in speed}
        for name in WORKLOADS:
            res = {p: self.run(p, name) for p in protos}
            cat = WORKLOADS[name].category
            base = res["MESI"]
            for p in speed:
                speed[p][cat].append(base.cycles / res[p].cycles)
                energy[p][cat].append(res[p].energy.total
                                      / base.energy.total)
            exp.add_row(name, cat,
                        *(speed[p][cat][-1] for p in speed),
                        *(energy[p][cat][-1] for p in speed),
                        *(res[p].total_flits / base.total_flits
                          for p in speed))
        s_tcs, s_tcw, s_rcc = (self._gmean(speed[p]["inter"])
                               for p in speed)
        s_rcc_intra = self._gmean(speed["RCC"]["intra"])
        e_tcs = self._gmean(energy["TCS"]["inter"])
        e_rcc = self._gmean(energy["RCC"]["inter"])
        exp.claim("RCC speedup over MESI, inter-wg gmean above +25% "
                  "(Fig 9a)", "RCC +76%", f"RCC {(s_rcc - 1) * 100:+.0f}%",
                  s_rcc > 1.25)
        exp.claim("RCC speedup over TCS, inter-wg gmean above +10% "
                  "(Fig 9a)", "RCC +29%",
                  f"RCC {(s_rcc / s_tcs - 1) * 100:+.0f}%",
                  s_rcc / s_tcs > 1.1)
        behind = 1 - s_rcc / s_tcw
        exp.claim("RCC within 15% of TCW (best non-SC), inter-wg gmean "
                  "(Fig 9a)", "within 7%", f"{behind * 100:.0f}% behind",
                  behind < 0.15)
        exp.claim("RCC speedup over MESI, intra-wg gmean above -5% "
                  "(Fig 9a)", "RCC +10%",
                  f"RCC {(s_rcc_intra - 1) * 100:+.0f}%",
                  s_rcc_intra > 0.95)
        exp.claim("RCC interconnect energy below MESI, inter-wg gmean "
                  "(Fig 9b)", "RCC -45%", f"RCC {(e_rcc - 1) * 100:+.0f}%",
                  e_rcc < 1.0)
        exp.claim("RCC interconnect energy below TCS, inter-wg gmean "
                  "(Fig 9b)", "RCC -25%",
                  f"RCC {(e_rcc / e_tcs - 1) * 100:+.0f}%", e_rcc < e_tcs)
        return exp

    # ------------------------------------------------------------------
    # Figure 10 — weak-ordering variants vs RCC-SC
    # ------------------------------------------------------------------
    def fig10(self) -> ExperimentResult:
        exp = ExperimentResult(
            "fig10",
            "Fig. 10 - speedup of weak-ordering implementations over "
            "RCC-SC",
            ["workload", "class", "RCC-WO/RCC-SC", "TCW/RCC-SC"],
        )
        self.prefetch([(p, w) for w in WORKLOADS
                       for p in ("RCC", "RCC-WO", "TCW")])
        speedup = {"RCC-WO": {}, "TCW": {}}
        for name in WORKLOADS:
            base = self.run("RCC", name)
            for p in speedup:
                speedup[p][name] = base.cycles / self.run(p, name).cycles
            exp.add_row(name, WORKLOADS[name].category,
                        speedup["RCC-WO"][name], speedup["TCW"][name])
        g_wo, g_tcw = (self._gmean([speedup[p][w] for w in inter_workgroup()])
                       for p in speedup)
        exp.claim("RCC-WO over RCC-SC, inter-wg gmean between 0% and +60% "
                  "(Fig 10)", "+7%", f"{(g_wo - 1) * 100:+.0f}%",
                  1.0 <= g_wo < 1.6)
        exp.claim("TCW over RCC-SC, inter-wg gmean, neck and neck with "
                  "RCC-WO: RCC-WO above 0.9x TCW (Fig 10)",
                  "+7%, like RCC-WO", f"{(g_tcw - 1) * 100:+.0f}%, RCC-WO "
                  f"{(g_wo - 1) * 100:+.0f}%", g_wo > g_tcw * 0.9)
        tcw_dlb = speedup["TCW"]["dlb"]
        exp.claim("TCW over RCC-SC on dlb, where fences are frequent and "
                  "steals rare, below 1.15x (Fig 10)", "RCC-SC faster",
                  f"{tcw_dlb:.2f}x", tcw_dlb < 1.15)
        return exp

    # ------------------------------------------------------------------
    # Differential fuzz campaign (correctness, not a paper figure)
    # ------------------------------------------------------------------
    def fuzz(self, n_programs: int = 50,
             seed: Optional[int] = None) -> ExperimentResult:
        """Differential fuzz: random programs under every protocol,
        SC protocols cross-checked against the witness checker and the
        SC interleaving oracle (see :mod:`repro.fuzz`)."""
        # Imported lazily: repro.fuzz.differential imports ExperimentResult
        # from this module, so a top-level import would be circular.
        from repro.fuzz import DifferentialRunner, run_campaign
        runner = DifferentialRunner(cfg=GPUConfig.small())
        result = run_campaign(runner, seed=self.seed if seed is None
                              else seed, n_programs=n_programs,
                              executor=self.executor)
        return result.as_experiment()

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def table1(self) -> ExperimentResult:
        exp = ExperimentResult(
            "table1", "Table I - SC and store-permission capability matrix",
            ["protocol", "SC support", "stall-free store permissions"])
        exp.add_row("MESI", "yes", "no (invalidate sharers)")
        exp.add_row("TCS", "yes", "no (wait until lease expires)")
        exp.add_row("TCW", "no", "yes (but stall for fences)")
        exp.add_row("RCC", "yes", "yes")
        return exp

    def table3(self) -> ExperimentResult:
        cfg = self.cfg
        exp = ExperimentResult(
            "table3", "Table III - simulated GPU configuration",
            ["parameter", "value"])
        exp.add_row("GPU cores", cfg.n_cores)
        exp.add_row("warps/core", cfg.warps_per_core)
        exp.add_row("L1 per core",
                    f"{cfg.l1.size_bytes // 1024} KB, {cfg.l1.assoc}-way, "
                    f"{cfg.l1.block_bytes} B lines, "
                    f"{cfg.l1.mshr_entries} MSHRs")
        exp.add_row("L2 partitions", cfg.l2_banks)
        exp.add_row("L2 per partition",
                    f"{cfg.l2_per_bank.size_bytes // 1024} KB, "
                    f"{cfg.l2_per_bank.assoc}-way, "
                    f"{cfg.l2_per_bank.mshr_entries} MSHRs")
        exp.add_row("L2 min round trip", f"{cfg.l2_min_round_trip} cycles")
        exp.add_row("DRAM min latency", f"{cfg.dram.min_latency} cycles")
        exp.add_row("logical timestamps",
                    f"{cfg.ts.bits} bits, leases {cfg.ts.lease_min}-"
                    f"{cfg.ts.lease_max} (predicted)")
        return exp

    def table4(self) -> ExperimentResult:
        exp = ExperimentResult(
            "table4", "Table IV - benchmark models",
            ["name", "class", "pattern modelled"])
        for name, cls in WORKLOADS.items():
            exp.add_row(name, cls.category, cls.description)
        return exp

    def table5(self) -> ExperimentResult:
        exp = ExperimentResult(
            "table5", "Table V - protocol states and transitions "
            "(paper-reported; RCC matches this implementation's FSM)",
            ["protocol", "L1 states", "L1 transitions", "L2 states",
             "L2 transitions"])
        for row in table_v_rows():
            exp.add_row(*row)
        paper, impl = PAPER_TABLE_V["RCC"], implementation_states()["RCC"]

        def states(d):
            return (f"L1 {d['l1_states']} ({d['l1_stable']} stable), "
                    f"L2 {d['l2_states']} ({d['l2_stable']} stable)")

        exp.claim("RCC's implemented L1/L2 state and stable-state counts "
                  "match the paper's (Table V)", states(paper), states(impl),
                  all(impl[k] == paper[k] for k in impl))
        return exp


#: name -> method name, for the CLI.
ALL_EXPERIMENTS: Dict[str, str] = {
    "fig1": "fig1",
    "fig6": "fig6",
    "fig7": "fig7",
    "fig8": "fig8",
    "fig9": "fig9",
    "fig10": "fig10",
    "table1": "table1",
    "table3": "table3",
    "table4": "table4",
    "table5": "table5",
    "fuzz": "fuzz",
}
