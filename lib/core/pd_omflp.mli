(** PD-OMFLP — the paper's deterministic primal–dual algorithm
    (Algorithm 1), O(√|S| · log n)-competitive under Condition 1.

    On the arrival of a request [r] demanding [s_r], the dual variables
    [a_re] of all unserved commodities rise simultaneously until one of the
    four constraints becomes tight:

    + [a_re = d(F(e), r)] — connect commodity [e] to an existing facility;
    + [Σ a_re = d(F̂, r)] — connect the whole request to an existing large
      facility;
    + the bids towards a small facility [{e}] at some site [m] reach
      [f^{{e}}_m] — tentatively open it;
    + the bids towards a large facility at [m] reach [f^S_m] — open it,
      discarding tentative small facilities.

    Bid sums of past requests are constant during one arrival (facilities
    only open when processing ends), so each tightness time is computed in
    closed form. The constraint-(3)/(4) bid sums are maintained across
    arrivals — O(|s_r| · |M|) per recorded request plus O(affected · |M|)
    per facility opening — instead of being recomputed from the whole
    history on every arrival.

    The state is what the algorithm decides from: the facilities and
    services (the store), each past request's frozen duals [a_re] and bid
    caps ({!dual_records}), and the bid caches. Which constraint fired
    is not kept; the [pd.event.*] counters of [lib/obs] count the
    firings. *)

type t

val name : string
val family : Omflp_instance.Problem_env.Family.t

val create : ?seed:int -> Omflp_instance.Problem_env.t -> t

val step : t -> Omflp_instance.Request.t -> Service.t

val run_so_far : t -> Run.t

(** {1 Snapshot / restore}

    See {!Algo_intf.ALGO}: byte-identical continuation, one segment per
    [snapshot], tag [omflp.snap.pd-omflp.v4]. A delta segment holds the
    store's new facilities and services, the new history rows, the
    fixed-size bid caches, and the past rows whose bid caps a facility
    opening lowered since the previous segment (recorded as they change,
    never recomputed), so its size does not grow with the run. [restore]
    raises [Failure] on any other blob, naming what it found: a retired
    v2 snapshot, or another tag such as [omflp.snap.pd-omflp.v3]. *)

val snapshot : t -> string

val restore : Omflp_instance.Problem_env.t -> string -> t

(** [write w t] writes [t]'s whole state into the payload of a segment
    being encoded, and [read env r] reads it back; for algorithms that
    embed a PD-OMFLP run (HEAVY-AWARE). [write] does not move the mark
    [snapshot]'s next delta starts from. *)
val write : Omflp_prelude.Snapshot_codec.writer -> t -> unit

val read :
  Omflp_instance.Problem_env.t -> Omflp_prelude.Snapshot_codec.reader -> t

(** {1 Introspection (analysis and tests)} *)

type dual_record = {
  site : int;
  demand : Omflp_commodity.Cset.t;
  duals : float array;  (** [a_re] per commodity; meaningful on [demand] *)
  dual_sum : float;  (** [Σ_{e ∈ s_r} a_re] *)
}

(** [dual_records t] returns one record per processed request, in arrival
    order. *)
val dual_records : t -> dual_record list

(** [dual_objective t] is [Σ_r Σ_e a_re] — by Corollary 8 at least a third
    of the algorithm's total cost. *)
val dual_objective : t -> float

val store : t -> Facility_store.t

(** [cache_drift t] recomputes the bid sums from scratch and returns the
    largest absolute deviation from the maintained caches — 0 up to float
    noise when the cache maintenance is correct. The reference for the
    oracle's [bid-cache] check and the cache tests. *)
val cache_drift : t -> float
