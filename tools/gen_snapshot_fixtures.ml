(* Regenerates test/golden/snapshot_v3/<algo>.snap: the committed
   snapshot-codec fixtures. Each file holds the exact segment every
   registered algorithm emits on its first snapshot — a base — after
   serving the first 5 requests of a golden check scenario of its own
   family (index 0 for OMFLP, 30 for non-metric, 33 for leasing) —
   test_serve pins current snapshots to these bytes and proves the
   committed bytes still restore and continue into the golden run
   digests. The directory is named after the v3 segment container; each
   algorithm's payload is versioned by its own tag, which bumps inside
   that container when the payload changes (PD-OMFLP and HEAVY-AWARE
   are at .v4, the others at .v3). Regenerate ONLY on a deliberate
   wire-format change, together with a tag bump in the algorithm's
   codec, and move the replaced fixtures under
   test/golden/snapshot_legacy/ (the .v3 PD-OMFLP and HEAVY-AWARE ones
   are in snapshot_legacy/v3/); every other fixture must come out
   byte-identical.

   Usage: dune exec tools/gen_snapshot_fixtures.exe *)

open Omflp_instance

let master_seed = 0xD16E57

let scenario_for fam =
  let index =
    match fam with
    | Problem_env.Family.Omflp -> 0
    | Problem_env.Family.Nonmetric_fl -> 30
    | Problem_env.Family.Multi_facility_leasing -> 33
  in
  Omflp_check.Scenario.golden ~master_seed ~index

let () =
  let dir = Filename.concat "test" (Filename.concat "golden" "snapshot_v3") in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.iter
    (fun (name, (module A : Omflp_core.Algo_intf.ALGO)) ->
      let sc = scenario_for A.family in
      let inst = sc.Omflp_check.Scenario.instance in
      let seed = sc.Omflp_check.Scenario.algo_seed in
      let cut = min 5 (Instance.n_requests inst) in
      let t = A.create ~seed (Instance.env inst) in
      for i = 0 to cut - 1 do
        ignore (A.step t inst.Instance.requests.(i))
      done;
      let blob = A.snapshot t in
      let path = Filename.concat dir (String.lowercase_ascii name ^ ".snap") in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc blob);
      Printf.printf "wrote %s (%d bytes)\n" path (String.length blob))
    (Omflp_core.Registry.extended ())
