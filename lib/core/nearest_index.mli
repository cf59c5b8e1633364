(** Incremental nearest-open-facility index.

    Maintains, for every commodity [e] and site [p], the distance to and
    identity of the nearest open facility offering [e] — the [d(F(e), ·)]
    and [d(F̂, ·)] tables of the paper — updated in O(|σ(f)| · |M|) per
    opening and queried in O(1). Extracted from [Facility_store] so the
    step loops of [Pd_omflp], [Rand_omflp] and [Greedy_baseline] can
    consult it (and its raw rows) directly instead of re-scanning the
    facility list.

    Invariants:
    - [dist t ~commodity ~site] equals the minimum over open facilities
      [f] offering [commodity] of [Finite_metric.dist metric site f.site]
      ([infinity] when no such facility exists), provided every opening
      was reported through {!note_opened} against the same metric.
    - Ties keep the earliest-opened facility ([note_opened] only replaces
      on strictly smaller distance), matching the historical
      [Facility_store] behavior that the decision digests pin.

    Counters: [index.openings], [index.cell_updates]. Queries are not
    counted — they are raw array reads inside the innermost event
    loops. *)

type t

val create : n_commodities:int -> n_sites:int -> t

(** [note_opened t metric ~site ~offered ~id] folds a newly opened
    facility into the tables. [offered] is the facility's commodity set;
    a full set also updates the large-facility tables. *)
val note_opened :
  t ->
  Omflp_metric.Finite_metric.t ->
  site:int ->
  offered:Omflp_commodity.Cset.t ->
  id:int ->
  unit

(** [dist t ~commodity ~site] is [d(F(commodity), site)]; [infinity] if
    no open facility offers it. *)
val dist : t -> commodity:int -> site:int -> float

(** [id t ~commodity ~site] is the nearest such facility's id, [-1] if
    none. *)
val id : t -> commodity:int -> site:int -> int

val dist_large : t -> site:int -> float

val id_large : t -> site:int -> int

(** Read-only views of the underlying flat tables for loops that scan
    every site: cell (commodity [e], site [p]) of {!flat_dist} /
    {!flat_id} lives at [e * n_sites + p]. Callers MUST NOT mutate
    them. *)
val flat_dist : t -> float array

val flat_id : t -> int array

val dist_large_row : t -> float array

val id_large_row : t -> int array
