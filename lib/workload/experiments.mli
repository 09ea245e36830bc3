(** The reproduction experiments — one function per table of
    EXPERIMENTS.md (T1–T17, DESIGN.md §3), and the one list of tables the
    benchmark executable runs.

    Every function prints its table (via [Ks_stdx.Table]) and returns the
    rows so tests can assert on them.  Each table's defaults are its full
    configuration; the list also holds the smaller quick one. *)

type row = string list

(** Data point shared by T1/T2/T10 (one full Everywhere run + baselines
    at one n). *)
type scaling_point = {
  n : int;
  ks_ae_bits : float;  (** max bits/processor, tournament phase *)
  ks_a2e_bits : float;  (** max bits/processor, amplification phase *)
  ks_total_bits : float;
  ks_rounds : float;
  rabin_bits : float;
  rabin_rounds : float;
  king_bits : float;
  king_rounds : float;
  ks_success : bool;
}

(** T1, T2 and T10 render one scaling sweep: bits per processor, rounds,
    and the power-law fits with their extrapolated crossovers. *)
val t1_bits : scaling_point list -> row list
val t2_latency : scaling_point list -> row list
val t10_crossover : scaling_point list -> row list

(** T3: almost-everywhere agreement fraction vs adversary scenario. *)
val t3_ae_agreement : ?ns:int list -> ?seeds:int list -> unit -> row list

(** T4: Algorithm 5 standalone — failure probability vs good-coin rounds,
    and agreement vs corruption fraction. *)
val t4_aeba_coins : ?n:int -> ?trials:int -> unit -> row list

(** T5: Feige elections under a rushing bin-stuffing adversary. *)
val t5_election : ?candidates:int -> ?trials:int -> unit -> row list

(** T6: Algorithm 3 standalone — success probability, Õ(√n) bits,
    overload events; honest and flooding adversaries. *)
val t6_a2e : ?ns:int list -> ?seeds:int list -> unit -> row list

(** T7: secret-sharing hiding (Lemma 1) over Z_p — distinguishing
    advantage with t vs t+1 shares, through iterated resharing. *)
val t7_hiding : ?trials:int -> unit -> row list

(** T8: sampler quality (Lemma 2) — measured δ and max degree vs d. *)
val t8_samplers : ?r:int -> ?s:int -> unit -> row list

(** T9: everywhere-BA success rate vs corruption fraction (the 1/3
    threshold). *)
val t9_threshold : ?n:int -> ?seeds:int list -> unit -> row list

(** T11: ablations of the design choices DESIGN.md calls out (sharing
    threshold policy, amplification fan-out, round budgets). *)
val t11_ablation : ?n:int -> ?seeds:int list -> unit -> row list

(** T12: universe reduction (§1.2) and the array-vs-processor election
    motivation (§1.3) — committee representativeness before and after a
    post-election hunt, with coin quality measured after the hunt. *)
val t12_universe : ?n:int -> ?seeds:int list -> unit -> row list

(** T13: the KSSV'06 processor tournament (the paper's non-adaptive
    predecessor) against static vs adaptive adversaries. *)
val t13_kssv : ?n:int -> ?seeds:int list -> unit -> row list

(** T14: the two parameter profiles side by side (pure formulas). *)
val t14_parameters : unit -> row list

(** T15: the §6 open problem explored — asynchronous binary agreement
    (MMR'14) with a common-coin oracle, under hostile scheduling. *)
val t15_async : ?ns:int list -> ?seeds:int list -> unit -> row list

(** T16: breaking points under benign faults (docs/FAULTS.md) crossed
    with Byzantine corruption past 1/3 — agreement and degradation rate,
    retry rounds taken, residual decode failures, bit overhead relative
    to the fault-free cell, and the Rabin baseline under the same plan. *)
val t16_faults : ?n:int -> ?seeds:int list -> unit -> row list

(** T17: survival under the active-attack library (docs/ATTACKS.md) —
    every {!Ks_attacks} strategy crossed with corruption fraction (past
    1/3 on purpose) and with the provable-misbehaviour quarantine armed
    and disarmed, with agreement rate, bits, rounds, quarantine
    convictions, and the Rabin baseline under the same attack's votes. *)
val t17_attacks : ?n:int -> ?seeds:int list -> unit -> row list

(** The always-on accounting monitors every experiment runs under:
    corruption-budget, Õ(√n) bit budget and polylog round bound (the
    latter two scoped to the King–Saia phase networks — the O(n²)
    baselines exist to violate them). *)
val standard_monitors : unit -> Ks_monitor.Monitor.t list

(** The tables, in order: ["t1"] … ["t17"]. *)
val table_names : string list

(** [run_tables ~quick names] — the named tables, in the given order, at
    their quick or full configuration.  Each net-driving table runs under
    its monitors ({!standard_monitors}, or the corruption budget alone for
    T16 and T17); on any violation the violation table is printed and
    [Failure] raised.  T1, T2 and T10 share one scaling sweep (n ∈
    \{64,128\}, seed 1 quick; n ∈ \{64…512\}, seeds 1–2 full), collected
    under {!standard_monitors}.  [?trace] streams every table into one
    JSONL sink, closed on return.  Raises [Invalid_argument] on a name not
    in {!table_names}. *)
val run_tables : ?quick:bool -> ?trace:Ks_monitor.Trace.sink -> string list -> unit

(** [run_all ~quick ()] — [run_tables] over {!table_names}. *)
val run_all : ?quick:bool -> ?trace:Ks_monitor.Trace.sink -> unit -> unit
