(* The benchmark's own checks, at tiny sizes: every workload passes its
   output checks, repeats its work fingerprint exactly, and emits only
   metrics that BENCHMARK.json declares, with the declared units. *)

open Perfbench
module Json = Repro_obs.Report.Json

(* The entries of one top-level array of BENCHMARK.json. *)
let declared section =
  let ic = open_in_bin "../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse text with
  | Json.Obj kv -> ( match List.assoc section kv with Json.Arr xs -> xs | _ -> failwith section)
  | _ -> failwith "BENCHMARK.json: not an object"

let str key = function
  | Json.Obj kv -> ( match List.assoc key kv with Json.Str s -> s | _ -> failwith key)
  | _ -> failwith key

let names_match () =
  let pairs = Alcotest.(list (pair string string)) in
  let name_unit x = (str "name" x, str "unit" x) in
  Alcotest.check pairs "end_to_end" (List.map name_unit (declared "end_to_end")) Bench.end_to_end;
  Alcotest.check pairs "per_layer" (List.map name_unit (declared "per_layer")) Bench.per_layer;
  Alcotest.(check (list string))
    "workloads"
    (List.map (str "name") (declared "workloads"))
    (List.map fst Bench.workloads)

let emits_declared workload traced () =
  match Bench.outcome ~size:Stats.Tiny ~workload ~seed:3 ~seconds:0.0 ~traced with
  | None -> Alcotest.fail "unknown workload"
  | Some o ->
    Alcotest.(check (list string)) "output checks" [] o.Stats.problems;
    Alcotest.(check int) "failed" 0 o.Stats.failed;
    Alcotest.(check bool) "attempted" true (o.Stats.attempted > 0);
    let specs = if traced then Bench.per_layer else Bench.end_to_end in
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name specs) then Alcotest.failf "undeclared metric %s" name)
      o.Stats.values

let fleet_fingerprint hot () =
  let once () =
    let inst = Fleet.prepare (Fleet.config ~hot ~size:Stats.Tiny ~seed:5) in
    let report, _ = Fleet.serve inst in
    Alcotest.(check (list string)) "checks" [] (Fleet.check_report report);
    Fleet.fingerprint report.Repro_service.Service.det
  in
  let a = once () in
  Alcotest.(check string) "same fingerprint twice" a (once ())

let cluster_fingerprint () =
  let once () =
    let s = Replica.serve ~size:Stats.Tiny ~seed:5 in
    Alcotest.(check (list string)) "checks" [] s.Replica.problems;
    s.Replica.fingerprint
  in
  let a = once () in
  Alcotest.(check string) "same fingerprint twice" a (once ())

let () =
  let per_workload name =
    [
      Alcotest.test_case (name ^ " end-to-end") `Quick (emits_declared name false);
      Alcotest.test_case (name ^ " per-layer") `Quick (emits_declared name true);
    ]
  in
  Alcotest.run "perfbench"
    [
      ("declared", [ Alcotest.test_case "names and units" `Quick names_match ]);
      ("emitted", List.concat_map per_workload (List.map fst Bench.workloads));
      ( "fingerprint",
        [
          Alcotest.test_case "fleet-local" `Quick (fleet_fingerprint false);
          Alcotest.test_case "fleet-hot" `Quick (fleet_fingerprint true);
          Alcotest.test_case "replica-cluster" `Quick cluster_fingerprint;
        ] );
    ]
