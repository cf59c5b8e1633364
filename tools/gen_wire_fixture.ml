(* Regenerates test/golden/wire/: the committed wire-format fixtures that
   pin every byte the serving layer writes as text.

   - streams.txt: for every registered algorithm on the golden check
     scenario of its own family (index 0 for OMFLP, 30 for non-metric,
     33 for leasing), each request's client line ("req"), WAL line
     ("wal"), canonical decision line ("dec") and socket decision line
     with latency_s = 1.234e-4 ("lat"), then the done record ("done").
   - floats.txt: one hand-built decision per special float (signed
     zeros, subnormals, the neighbours of 1e-4 and 1e16, nan, infinities
     and a few ordinary values), written into every float field and into
     latency_s; "case" carries the bit pattern.
   - killed/: a PD-OMFLP checkpoint directory on scenario 0 abandoned as
     a SIGKILL leaves it: a snapshot chain covering 5 requests, 9 durable
     decisions, and 11 WAL lines (the last batch was logged but never
     stepped).

   test_serve re-encodes all of it with the current code and resumes a
   copy of killed/. The committed files were written by the code before
   the direct request scanner and number writers replaced Minijson and
   Printf on the serving path; regenerate ONLY on a deliberate
   wire-format change.

   Usage: dune exec tools/gen_wire_fixture.exe *)

open Omflp_instance
open Omflp_core
open Omflp_serve

let master_seed = 0xD16E57

(* Fixed latency of the "lat" lines; must mirror test_serve.ml. *)
let latency_s = 1.234e-4

(* Manifest md5 of killed/; must mirror test_serve.ml. *)
let instance_md5 = "0123456789abcdef0123456789abcdef"

let scenario_for fam =
  let index =
    match fam with
    | Problem_env.Family.Omflp -> 0
    | Problem_env.Family.Nonmetric_fl -> 30
    | Problem_env.Family.Multi_facility_leasing -> 33
  in
  (index, Omflp_check.Scenario.golden ~master_seed ~index)

let dir = Filename.concat "test" (Filename.concat "golden" "wire")

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let write_streams () =
  let path = Filename.concat dir "streams.txt" in
  Out_channel.with_open_bin path (fun oc ->
      let line tag s = Printf.fprintf oc "%s %s\n" tag s in
      List.iter
        (fun (name, ((module A : Algo_intf.ALGO) as algo)) ->
          let index, sc = scenario_for A.family in
          let inst = sc.Omflp_check.Scenario.instance in
          let seed = sc.Omflp_check.Scenario.algo_seed in
          Printf.fprintf oc "scenario %d %s\n" index name;
          let s = Session.create ~algo ~seed (Instance.env inst) in
          Array.iteri
            (fun i r ->
              let d = (Session.handle_batch s [| r |]).(0) in
              line "req" (Wire.request_line r);
              line "wal" (Wire.request_to_json ~index:i r);
              line "dec" (Wire.decision_to_json d);
              line "lat" (Wire.decision_to_json ~latency_s d))
            inst.Instance.requests;
          let _, _, total = Session.running_costs s in
          line "done" (Wire.done_to_json ~served:(Session.count s) ~total))
        (Registry.extended ()));
  Printf.printf "wrote %s\n" path

(* The special values of floats.txt. *)
let special_floats =
  [
    0.0; -0.0; Float.min_float /. 4.0; Float.succ 0.0; Float.pred Float.min_float;
    Float.min_float; Float.pred 1e-4; 1e-4; Float.succ 1e-4; Float.pred 1e16;
    1e16; Float.succ 1e16; Float.nan; Float.neg Float.nan; Float.infinity;
    Float.neg_infinity; 0.1; 1.0 /. 3.0; 2.5; 123456.789; 0x1p53;
    Float.pred 0x1p53; 5e-7; -1.5; Float.max_float;
  ]

(* The skeleton every floats.txt case fills with one value [v]; must
   mirror test_serve.ml. *)
let special_decision k v =
  let cs = Omflp_commodity.Cset.of_list ~n_commodities:4 [ 0; 2 ] in
  {
    Wire.index = k;
    site = 3;
    demand = [ 0; 2 ];
    service = (if k mod 2 = 0 then Service.To_single 7
               else Service.Per_commodity [ (0, 7); (2, 8) ]);
    opened =
      [
        { Facility.id = 7; site = 3; kind = Facility.Small 0;
          offered = Omflp_commodity.Cset.singleton ~n_commodities:4 0;
          cost = v; opened_at = k };
        { Facility.id = 8; site = 1; kind = Facility.Custom cs; offered = cs;
          cost = v; opened_at = k };
      ];
    construction = v;
    assignment = v;
    total = v;
  }

let write_floats () =
  let path = Filename.concat dir "floats.txt" in
  Out_channel.with_open_bin path (fun oc ->
      List.iteri
        (fun k v ->
          let d = special_decision k v in
          Printf.fprintf oc "case %Lx\n" (Int64.bits_of_float v);
          Printf.fprintf oc "dec %s\n" (Wire.decision_to_json d);
          Printf.fprintf oc "lat %s\n" (Wire.decision_to_json ~latency_s:v d);
          Printf.fprintf oc "done %s\n" (Wire.done_to_json ~served:k ~total:v))
        special_floats);
  Printf.printf "wrote %s\n" path

let write_killed () =
  let path = Filename.concat dir "killed" in
  rm_rf path;
  let algo = (module Pd_omflp : Algo_intf.ALGO) in
  let _, sc = scenario_for Problem_env.Family.Omflp in
  let inst = sc.Omflp_check.Scenario.instance in
  let reqs = inst.Instance.requests in
  let cp =
    Checkpoint.create ~dir:path ~algo:Pd_omflp.name
      ~seed:(Some sc.Omflp_check.Scenario.algo_seed) ~instance_md5
      ~snapshot_every:5
  in
  let s =
    Session.create ~algo ~seed:sc.Omflp_check.Scenario.algo_seed ~checkpoint:cp
      (Instance.env inst)
  in
  List.iter
    (fun (lo, n) -> ignore (Session.handle_batch s (Array.sub reqs lo n)))
    [ (0, 3); (3, 3); (6, 3) ];
  (* The next batch's WAL flush, then the kill: its steps never ran. *)
  let b = Buffer.create 128 in
  for i = 9 to Array.length reqs - 1 do
    Buffer.add_string b (Wire.request_to_json ~index:i reqs.(i));
    Buffer.add_char b '\n'
  done;
  Checkpoint.append_wal_batch cp b;
  Checkpoint.close cp;
  Printf.printf "wrote %s\n" path

let () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  write_streams ();
  write_floats ();
  write_killed ()
