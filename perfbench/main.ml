(* perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for about S seconds and prints, as the last line of
   standard output, one JSON object: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1]. Exits 1 when an
   output check fails and 2 on bad arguments. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let traced = !trace = 1 in
  match
    Bench.outcome ~size:Stats.Full ~workload:!workload ~seed:!seed
      ~seconds:(float_of_int !seconds) ~traced
  with
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" !workload
      (String.concat ", " (List.map fst Bench.workloads));
    exit 2
  | Some o ->
    List.iter (Printf.eprintf "check failed: %s\n") o.Stats.problems;
    print_endline (Bench.result_line ~traced o);
    exit (if o.Stats.problems = [] then 0 else 1)
