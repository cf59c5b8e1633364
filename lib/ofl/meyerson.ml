open Omflp_prelude
open Omflp_commodity
open Omflp_metric
open Omflp_obs

(* Same work-counter substrate as the multi-commodity algorithms
   (lib/obs), so OFL baselines and PD/RAND comparisons read off one
   measurement surface. *)
let m_steps = Metrics.counter "ofl.meyerson.steps"

let m_coin_flips = Metrics.counter "ofl.meyerson.coin_flips"

let m_facilities_opened = Metrics.counter "ofl.meyerson.facilities_opened"

type t = {
  served : Ofl_types.served;
  rng : Splitmix.t;
  classes : Cost_classes.cls array;  (** strictly increasing rounded cost *)
}

let create_seeded metric ~opening_costs ~rng =
  let served = Ofl_types.served ~who:"Meyerson" metric ~opening_costs in
  { served; rng; classes = Cost_classes.of_costs opening_costs }

let create metric ~opening_costs =
  create_seeded metric ~opening_costs ~rng:(Splitmix.of_int 0x6d65)

let open_facility t m =
  Metrics.incr m_facilities_opened;
  Ofl_types.open_site t.served m

let step t site =
  Metrics.incr m_steps;
  let s = t.served in
  (* Each class's nearest site and the cumulative-minimum distance to
     classes 0..i. *)
  let dist_to = Finite_metric.dist s.metric site in
  let near = Array.map (Cost_classes.nearest ~dist_to) t.classes in
  let cum = Array.map snd near in
  for i = 1 to Array.length cum - 1 do
    cum.(i) <- Float.min cum.(i - 1) cum.(i)
  done;
  (* Connection estimate: nearest open facility, or cheapest
     build-and-connect. *)
  let estimate =
    Float.min s.dist.(site) (Cost_classes.build_estimate t.classes cum)
  in
  (* Per-class opening coin: probability (D_{i-1} - D_i) / C_i with
     D_0 = estimate. *)
  Array.iteri
    (fun i (cls : Cost_classes.cls) ->
      let d_prev = if i = 0 then estimate else cum.(i - 1) in
      let improvement = Float.max 0.0 (d_prev -. cum.(i)) in
      if cls.cost = 0.0 then begin
        (* Free classes: opening is always worthwhile when it beats every
           existing facility (the estimate already counts the free build,
           so compare against open facilities instead). *)
        if cum.(i) < s.dist.(site) then open_facility t (fst near.(i))
      end
      else begin
        let p = Float.min 1.0 (improvement /. cls.cost) in
        if p > 0.0 then begin
          Metrics.incr m_coin_flips;
          if Splitmix.bernoulli t.rng p then
            open_facility t (fst near.(i))
        end
      end)
    t.classes;
  (* Service guarantee: if nothing is open yet, deterministically realise
     the cheapest build-and-connect option. *)
  if s.dist.(site) = infinity then begin
    let best_i = ref 0 and best_v = ref infinity in
    Array.iteri
      (fun i (cls : Cost_classes.cls) ->
        let v = cls.cost +. snd near.(i) in
        if v < !best_v then begin
          best_v := v;
          best_i := i
        end)
      t.classes;
    open_facility t (fst near.(!best_i))
  end;
  let dist = s.dist.(site) in
  s.assignment <- s.assignment +. dist;
  dist

let snapshot t = Ofl_types.run t.served

(* Persisted state: everything [step] reads that is not a pure function
   of (metric, opening_costs) — the RNG position, then the served set —
   written inside the enclosing algorithm's snapshot segment. [classes]
   is rebuilt deterministically from the opening costs. *)

let write_state b t =
  Snapshot_codec.w_i64 b (Splitmix.state t.rng);
  Ofl_types.write_served b t.served

let read_state metric ~opening_costs r =
  let rng = Splitmix.create (Snapshot_codec.r_i64 r) in
  let served = Ofl_types.read_served ~who:"Meyerson" metric ~opening_costs r in
  { served; rng; classes = Cost_classes.of_costs opening_costs }
