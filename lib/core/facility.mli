(** Facilities opened by an online algorithm. *)

type kind =
  | Small of int  (** serves the single commodity [e] — configuration [{e}] *)
  | Large  (** serves every commodity — configuration [S] *)
  | Custom of Omflp_commodity.Cset.t  (** arbitrary configuration (baselines) *)

type t = {
  id : int;  (** unique within one run, in opening order *)
  site : int;
  kind : kind;
  offered : Omflp_commodity.Cset.t;  (** the configuration as a set *)
  cost : float;  (** construction cost paid *)
  opened_at : int;
      (** index of the request whose arrival opened it, stamped by
          {!Facility_store.open_facility} from the store's request
          count *)
}

(** [offered_of_kind ~n_commodities kind] expands a kind to its commodity
    set. *)
val offered_of_kind : n_commodities:int -> kind -> Omflp_commodity.Cset.t

(** Snapshot codec v2 field serializers. [read] derives [offered] from
    the kind instead of deserializing it; raises [Failure] on malformed
    bytes. *)
val write : Omflp_prelude.Snapshot_codec.writer -> t -> unit

val read : n_commodities:int -> Omflp_prelude.Snapshot_codec.reader -> t

val pp : Format.formatter -> t -> unit
