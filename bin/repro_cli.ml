(* Command-line driver for the reproduction: run any experiment with
   custom parameters, dump CSV, or run a single ad-hoc simulation.

   dune exec bin/repro_cli.exe -- <command> [options]            *)

open Cmdliner
open Repro_experiments

let print_tables ~csv tables =
  List.iter
    (fun t ->
      if csv then print_endline (Table.to_csv t)
      else Format.printf "%a@.@." Table.pp t)
    tables

let csv_flag =
  Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of aligned tables.")

(* --metrics / --trace / --trace-out: the observability options of merge,
   scenario, sim, service-sim and bases-sim. *)
type obs = {
  metrics : [ `Text | `Json | `Csv ] option;
  trace : bool;
  trace_out : string option;
}

let obs_term =
  let metrics =
    let fmt = Arg.enum [ ("text", `Text); ("json", `Json); ("csv", `Csv) ] in
    Arg.(
      value
      & opt ~vopt:(Some `Text) (some fmt) None
      & info [ "metrics" ] ~docv:"FMT"
          ~doc:
            "Record pipeline metrics during the run and print the snapshot afterwards; $(docv) \
             is text (default), json or csv.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Stream one structured log line per completed pipeline span to stderr (implies \
             metric recording).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Capture structured trace events during the run and write them to $(docv) as Chrome \
             trace-event JSON — load it at ui.perfetto.dev (or chrome://tracing) to see the \
             pipeline, mobile, base and network lanes on one timeline.")
  in
  Term.(
    const (fun metrics trace trace_out -> { metrics; trace; trace_out })
    $ metrics $ trace $ trace_out)

(* Keep stdout machine-readable when a machine metrics format is on. *)
let report_ppf obs =
  match obs.metrics with
  | Some (`Json | `Csv) -> Format.err_formatter
  | Some `Text | None -> Format.std_formatter

let trace_clock_arg =
  Arg.(
    value
    & opt (enum [ ("wall", `Wall); ("logical", `Logical) ]) `Wall
    & info [ "trace-clock" ] ~docv:"CLOCK"
        ~doc:
          "Timestamp clock for $(b,--trace-out): $(b,wall) (default) or $(b,logical) — the \
           deterministic per-trace logical clock, byte-stable for seeded runs at any \
           $(b,--domains) count.")

let with_observability ?(trace_clock = `Wall) { metrics; trace; trace_out } f =
  let module Obs = Repro_obs.Obs in
  if metrics = None && (not trace) && trace_out = None then f ()
  else begin
    if trace then begin
      Repro_obs.Log_reporter.install_stderr_reporter ();
      Obs.set_tracing true
    end;
    if metrics <> None || trace then Obs.set_enabled true;
    if trace_out <> None then begin
      Obs.Event.clear ();
      Obs.Event.set_capturing true
    end;
    let result = f () in
    (match metrics with
    | None -> ()
    | Some format ->
      let report = Obs.snapshot () in
      (match format with
      | `Text -> print_string (Repro_obs.Report.to_text report)
      | `Json -> print_endline (Repro_obs.Report.to_json report)
      | `Csv -> print_string (Repro_obs.Report.to_csv report)));
    (match trace_out with
    | None -> ()
    | Some file ->
      Obs.Event.set_capturing false;
      let events = Obs.Event.events () in
      Out_channel.with_open_text file (fun oc ->
          Out_channel.output_string oc (Repro_obs.Chrome.to_json ~clock:trace_clock events));
      Printf.eprintf "trace: %d event(s) written to %s%s\n%!" (List.length events) file
        (match Obs.Event.dropped () with
        | 0 -> ""
        | n -> Printf.sprintf " (%d dropped at ring capacity)" n));
    result
  end

let seed_arg default =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.")

(* Sizes and intervals a run cannot use are usage errors. The converters
   print like Arg.int and Arg.float, so --help shows the same defaults. *)
let int_at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo -> Error (`Msg (Printf.sprintf "%d is less than %d" n lo))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

(* A size: a count of things, never negative. *)
let size = int_at_least 0

let seeds_arg default =
  Arg.(value & opt size default & info [ "seeds" ] ~docv:"N" ~doc:"Samples per sweep point.")

let positive_float =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when not (x > 0.0) -> Error (`Msg (Printf.sprintf "%s is not positive" s))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* A simulated duration: a trace ends at its first event past it, which
   never comes for NaN or infinity, and a non-positive one runs nothing. *)
let duration_arg default =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when not (x > 0.0 && Float.is_finite x) ->
      Error (`Msg (Printf.sprintf "%s is not a finite positive number" s))
    | r -> r
  in
  Arg.(
    value
    & opt (conv (parse, conv_printer float)) default
    & info [ "duration" ] ~docv:"T" ~doc:"Simulated time.")

(* A Zipf skew: any finite number (a negative one prefers high ranks). A
   NaN or infinite skew would pick one rank every time. *)
let finite_float =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when not (Float.is_finite x) -> Error (`Msg (Printf.sprintf "%s is not finite" s))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let unit_interval =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when not (x >= 0.0 && x <= 1.0) ->
      Error (`Msg (Printf.sprintf "%s is not in [0, 1]" s))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* A Pareto tail index must exceed 1 for the mean to exist. NaN fails the
   comparison, and an infinite index would make every length NaN. *)
let tail_index =
  let parse s =
    match Arg.conv_parser Arg.float s with
    | Ok x when not (x > 1.0 && Float.is_finite x) ->
      Error (`Msg (Printf.sprintf "%s is not a finite number above 1" s))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

let floats_arg names default ~doc =
  Arg.(value & opt (list float) default & info names ~docv:"X,Y,..." ~doc)

let skews_arg default ~doc =
  Arg.(value & opt (list finite_float) default & info [ "skews" ] ~docv:"X,Y,..." ~doc)

(* e1 *)
let e1_cmd =
  let dot =
    Arg.(
      value & flag
      & info [ "dot" ] ~doc:"Emit the Example 1 precedence graph in Graphviz dot format instead.")
  in
  let run csv dot =
    if dot then
      let pg =
        Repro_precedence.Precedence.(
          build ~tentative:Repro_core.Paper.example1_tentative
            ~base:(Index.of_summaries Repro_core.Paper.example1_base))
      in
      print_string
        (Repro_precedence.Dot.render
           ~removed:(Repro_history.Names.Set.of_names [ "Tm3"; "Tm4" ])
           pg)
    else print_tables ~csv (E1_example1.tables (E1_example1.run ()))
  in
  Cmd.v
    (Cmd.info "e1" ~doc:"Figure 1 / Example 1: precedence graph, cycle, back-out, merge order.")
    Term.(const run $ csv_flag $ dot)

(* e2 *)
let e2_cmd =
  let fleets =
    Arg.(
      value
      & opt (list size) [ 2; 4; 8 ]
      & info [ "fleets" ] ~docv:"N,M,..." ~doc:"Mobile fleet sizes to simulate.")
  in
  let duration = duration_arg 150.0 in
  let windows =
    Arg.(
      value
      & opt (list positive_float) [ 15.0; 30.0; 60.0; 120.0 ]
      & info [ "windows" ] ~docv:"W,..." ~doc:"Window lengths for the Strategy 2 sweep.")
  in
  let run csv fleets duration windows =
    print_tables ~csv [ E2_sync.table (E2_sync.run ~duration ~fleets ()) ];
    print_tables ~csv [ E2_sync.window_table (E2_sync.run_windows ~windows ()) ]
  in
  Cmd.v
    (Cmd.info "e2" ~doc:"Section 2.2 / Figure 2: Strategy 1 anomalies vs Strategy 2 windows.")
    Term.(const run $ csv_flag $ fleets $ duration $ windows)

(* e3 *)
let e3_cmd =
  let skews = skews_arg [ 0.0; 0.5; 0.9; 1.3 ] ~doc:"Zipf skews to sweep." in
  let commuting =
    Arg.(
      value & opt unit_interval 0.5
      & info [ "commuting" ] ~docv:"F" ~doc:"Fraction of commuting transaction types.")
  in
  let run csv seeds skews commuting =
    print_tables ~csv [ E3_savings.table (E3_savings.run ~seeds ~commuting ~skews ()) ]
  in
  Cmd.v
    (Cmd.info "e3" ~doc:"Theorem 3: transactions saved per rewriter vs conflict rate.")
    Term.(const run $ csv_flag $ seeds_arg 30 $ skews $ commuting)

(* e4 *)
let e4_cmd =
  let fractions =
    floats_arg [ "fractions" ] [ 0.0; 0.25; 0.5; 0.75; 1.0 ]
      ~doc:"Commuting-type fractions to sweep."
  in
  let run csv seeds fractions =
    print_tables ~csv [ E4_commute.table (E4_commute.run ~seeds ~fractions ()) ]
  in
  Cmd.v
    (Cmd.info "e4" ~doc:"Theorem 4: Algorithm 2 vs the commutativity-only rewriter.")
    Term.(const run $ csv_flag $ seeds_arg 30 $ fractions)

(* e5 *)
let e5_cmd =
  let overlaps =
    floats_arg [ "overlaps" ] [ 0.0; 0.25; 0.5; 0.75; 1.0 ]
      ~doc:"Probability a tentative transaction touches base-shared items."
  in
  let run csv seeds overlaps =
    print_tables ~csv [ E5_cost.table (E5_cost.run ~seeds ~overlaps ()) ]
  in
  Cmd.v
    (Cmd.info "e5" ~doc:"Section 7.1: merging vs reprocessing cost; locate the crossover.")
    Term.(const run $ csv_flag $ seeds_arg 20 $ overlaps)

(* e6 *)
let e6_cmd =
  let skews = skews_arg [ 0.3; 0.9 ] ~doc:"Zipf skews to sweep." in
  let blind =
    Arg.(
      value & opt unit_interval 0.3
      & info [ "blind" ] ~docv:"P" ~doc:"Blind-write probability in summaries.")
  in
  let run csv seeds skews blind =
    print_tables ~csv [ E6_backout.table (E6_backout.run ~seeds ~blind ~skews ()) ]
  in
  Cmd.v
    (Cmd.info "e6" ~doc:"[Dav84] back-out strategies: |B|, damage, optimality rate.")
    Term.(const run $ csv_flag $ seeds_arg 40 $ skews $ blind)

(* e7 *)
let e7_cmd =
  let fractions =
    floats_arg [ "fractions" ] [ 0.25; 0.75; 1.0 ] ~doc:"Commuting-type fractions to sweep."
  in
  let run csv seeds fractions =
    print_tables ~csv [ E7_prune.table (E7_prune.run ~seeds ~fractions ()) ]
  in
  Cmd.v
    (Cmd.info "e7" ~doc:"Section 6: pruning by compensation vs undo + undo-repair.")
    Term.(const run $ csv_flag $ seeds_arg 30 $ fractions)

(* e8 *)
let e8_cmd =
  let fleets =
    Arg.(
      value
      & opt (list size) [ 1; 2; 4; 8; 16 ]
      & info [ "fleets" ] ~docv:"N,M,..." ~doc:"Mobile fleet sizes to simulate.")
  in
  let run csv fleets = print_tables ~csv [ E8_scaling.table (E8_scaling.run ~fleets ()) ] in
  Cmd.v
    (Cmd.info "e8"
       ~doc:"Introduction / [GHOS96]: reconciliation load growth as the fleet scales.")
    Term.(const run $ csv_flag $ fleets)

(* e9 *)
let e9_cmd =
  let drops =
    floats_arg [ "drops" ] [ 0.0; 0.2; 0.5 ] ~doc:"Message drop rates to sweep."
  in
  let duration = duration_arg 150.0 in
  let run csv seed duration drops =
    print_tables ~csv [ E9_faults.table (E9_faults.run ~seed ~duration ~drops ()) ]
  in
  Cmd.v
    (Cmd.info "e9"
       ~doc:"Merging vs reprocessing when the merge exchange runs over an unreliable network.")
    Term.(const run $ csv_flag $ seed_arg 29 $ duration $ drops)

(* nemesis: fault-schedule sweep asserting the exactly-once contract *)
let nemesis_cmd =
  let count =
    Arg.(value & opt size 100 & info [ "count" ] ~docv:"N" ~doc:"Number of fault cases to check.")
  in
  let disk =
    Arg.(
      value & flag
      & info [ "disk" ]
          ~doc:
            "Also draw a random disk fault schedule per case (torn writes, short writes, bit \
             flips, read truncation, fsync lies) and check the corruption-safety contract: \
             recovery surfaces a verified prefix, loss is never silent, and salvage recovers \
             exactly the longest valid durable prefix.")
  in
  let run count seed disk =
    let sweep = Repro_fault.Nemesis.run_sweep ~disk ~seed ~count () in
    Format.printf "%a@." Repro_fault.Nemesis.pp_sweep sweep;
    if sweep.Repro_fault.Sweep.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "nemesis"
       ~doc:
         "Run merge sessions under random fault schedules (drops, duplicates, reordering, \
          partitions, crashes — plus disk faults with $(b,--disk)) and check the exactly-once \
          contract: completed sessions match the fault-free run, aborted sessions leave the \
          base untouched. Exits 1 on any violation.")
    Term.(const run $ count $ seed_arg 2026 $ disk)

(* ablations *)
let a1_cmd =
  let skews = skews_arg [ 0.5; 1.0 ] ~doc:"Zipf skews to sweep." in
  let run csv seeds skews =
    print_tables ~csv [ A1_fixmode.table (A1_fixmode.run ~seeds ~skews ()) ]
  in
  Cmd.v
    (Cmd.info "a1" ~doc:"Ablation: exact (Lemma 1) vs coarse (Lemma 2) fix bookkeeping.")
    Term.(const run $ csv_flag $ seeds_arg 30 $ skews)

let a2_cmd =
  let skews = skews_arg [ 0.5; 1.0 ] ~doc:"Zipf skews to sweep." in
  let run csv seeds skews =
    print_tables ~csv [ A2_setmode.table (A2_setmode.run ~seeds ~skews ()) ]
  in
  Cmd.v
    (Cmd.info "a2" ~doc:"Ablation: dynamic vs static read/write sets in the rewriter.")
    Term.(const run $ csv_flag $ seeds_arg 30 $ skews)

let a3_cmd =
  let skews = skews_arg [ 0.9 ] ~doc:"Zipf skews to sweep." in
  let run csv seeds skews =
    print_tables ~csv [ A3_strategy.table (A3_strategy.run ~seeds ~skews ()) ]
  in
  Cmd.v
    (Cmd.info "a3" ~doc:"Ablation: back-out strategies measured end to end after Algorithm 2.")
    Term.(const run $ csv_flag $ seeds_arg 25 $ skews)

(* The generated case of merge and explain, with the merge configuration
   its options select. *)
let case_term =
  let open Repro_replication in
  let tentative_len =
    Arg.(
      value & opt size 8
      & info [ "tentative-len" ] ~docv:"N" ~doc:"Tentative (mobile) history length.")
  in
  let base_len =
    Arg.(value & opt size 8 & info [ "base-len" ] ~docv:"N" ~doc:"Base history length.")
  in
  let skew =
    Arg.(
      value & opt finite_float 0.9 & info [ "skew" ] ~docv:"Z" ~doc:"Zipf skew of item selection.")
  in
  let commuting =
    Arg.(
      value & opt unit_interval 0.5
      & info [ "commuting" ] ~docv:"F" ~doc:"Fraction of commuting transaction types.")
  in
  let strategy =
    let open Repro_precedence in
    let strat_conv =
      Arg.enum (List.map (fun s -> (Backout.strategy_name s, s)) Backout.all_strategies)
    in
    Arg.(
      value
      & opt strat_conv Protocol.default_merge_config.Protocol.strategy
      & info [ "strategy" ] ~docv:"NAME" ~doc:"Back-out strategy (Section 2.1 / [Dav84]).")
  in
  let algorithm =
    let alg_conv =
      Arg.enum
        (List.map
           (fun a -> (Repro_rewrite.Rewrite.algorithm_name a, a))
           Repro_rewrite.Rewrite.all_algorithms)
    in
    Arg.(
      value
      & opt alg_conv Protocol.default_merge_config.Protocol.algorithm
      & info [ "algorithm" ] ~docv:"NAME" ~doc:"History rewriter to run (Section 5).")
  in
  let make seed tentative_len base_len skew commuting strategy algorithm =
    let profile =
      {
        Repro_workload.Gen.default_profile with
        Repro_workload.Gen.commuting_fraction = commuting;
        Repro_workload.Gen.zipf_skew = skew;
      }
    in
    ( Mergecase.generate ~seed ~profile ~tentative_len ~base_len ~strategy,
      { Protocol.default_merge_config with Protocol.strategy; Protocol.algorithm } )
  in
  Term.(
    const make $ seed_arg 11 $ tentative_len $ base_len $ skew $ commuting $ strategy
    $ algorithm)

(* merge: one end-to-end merge over a generated case, with observability *)
let merge_cmd =
  let open Repro_replication in
  let run obs (case, config) =
    let result =
      with_observability obs @@ fun () ->
      Repro_core.Session.merge_once ~config ~s0:case.Mergecase.s0
        ~tentative:(Repro_history.History.programs case.Mergecase.tentative)
        ~base:(Repro_history.History.programs case.Mergecase.base)
        ()
    in
    let report = result.Repro_core.Session.report in
    let count outcome =
      List.length
        (List.filter (fun (t : Protocol.txn_report) -> t.Protocol.outcome = outcome)
           report.Protocol.txns)
    in
    Format.fprintf (report_ppf obs)
      "tentative=%d base=%d backed_out=%d merged=%d reexecuted=%d rejected=%d@.cost: %a@."
      (Repro_history.History.length case.Mergecase.tentative)
      (Repro_history.History.length case.Mergecase.base)
      (Repro_history.Names.Set.cardinal report.Protocol.backed_out)
      (count Protocol.Merged) (count Protocol.Reexecuted) (count Protocol.Rejected) Cost.pp
      report.Protocol.cost
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Generate one reproducible tentative/base history pair and run the full merge pipeline \
          over it; combine with $(b,--metrics) and $(b,--trace) to inspect every stage.")
    Term.(const run $ obs_term $ case_term)

(* explain: per-transaction merge provenance over a generated case *)
let explain_cmd =
  let open Repro_replication in
  let prune =
    let prune_conv = Arg.enum [ ("compensate", true); ("undo", false) ] in
    Arg.(
      value & opt prune_conv true
      & info [ "prune" ] ~docv:"HOW"
          ~doc:
            "Pruning preference: $(b,compensate) (fall back to undo when a compensator is \
             missing) or $(b,undo) (always undo + undo-repair).")
  in
  let txn =
    Arg.(
      value
      & opt (some string) None
      & info [ "txn" ] ~docv:"NAME"
          ~doc:
            "Explain only this tentative transaction (e.g. Tm3); default: every tentative \
             transaction of the case.")
  in
  let format =
    let fmt_conv = Arg.enum [ ("text", `Text); ("json", `Json) ] in
    Arg.(
      value & opt fmt_conv `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")
  in
  let run (case, config) prefer_compensation txn format =
    let config =
      { config with Protocol.prefer_compensation; Protocol.capture_provenance = true }
    in
    let result =
      Repro_core.Session.merge_once ~config ~s0:case.Mergecase.s0
        ~tentative:(Repro_history.History.programs case.Mergecase.tentative)
        ~base:(Repro_history.History.programs case.Mergecase.base)
        ()
    in
    let records =
      Provenance.of_merge
        ~pg:result.Repro_core.Session.precedence
        ~tentative:case.Mergecase.tentative ~report:result.Repro_core.Session.report
    in
    let selected =
      match txn with
      | None -> records
      | Some name -> (
        match Provenance.find records name with
        | Some r -> [ r ]
        | None ->
          prerr_endline ("explain: unknown tentative transaction " ^ name);
          exit 1)
    in
    match format with
    | `Json -> print_string (Provenance.to_json selected)
    | `Text -> List.iter (fun r -> print_string (Provenance.to_text r)) selected
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Re-run the merge of a generated case with provenance capture and report, per \
          tentative transaction, the full decision chain: cycle membership, back-out, the \
          rewriting scan's per-pair verdicts (with the fix domains consulted), pruning method \
          and final disposition.")
    Term.(const run $ case_term $ prune $ txn $ format)

(* validate-json: syntax (and optionally Chrome-trace schema) check *)
let validate_json_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"JSON file to check.")
  in
  let chrome =
    Arg.(
      value & flag
      & info [ "chrome" ]
          ~doc:
            "Additionally check the Chrome trace-event structure: a traceEvents array whose \
             events carry name/ph/pid/tid, timestamps on non-metadata events, and balanced B/E \
             span pairs per thread.")
  in
  let run chrome file =
    let source = In_channel.with_open_text file In_channel.input_all in
    let result =
      if chrome then Repro_obs.Chrome.validate source
      else
        match Repro_obs.Report.Json.parse source with
        | _ -> Ok ()
        | exception Failure msg -> Error msg
    in
    match result with
    | Ok () -> print_endline (file ^ ": ok")
    | Error msg ->
      prerr_endline (file ^ ": " ^ msg);
      exit 1
  in
  Cmd.v
    (Cmd.info "validate-json"
       ~doc:
         "Check that $(i,FILE) parses as JSON (the CI smoke gate for the CLI's JSON \
          producers); with $(b,--chrome), also check the trace-event schema.")
    Term.(const run $ chrome $ file)

(* Shared --format=text|json selector for the storage tools. *)
let wal_output_format =
  let fmt_conv = Arg.enum [ ("text", `Text); ("json", `Json) ] in
  Arg.(
    value & opt fmt_conv `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")

(* scrub: offline WAL verification *)
let scrub_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Persisted WAL file.")
  in
  let run file format =
    match Repro_db.Scrub.file ~path:file with
    | Error msg ->
      prerr_endline (file ^ ": " ^ msg);
      exit 2
    | Ok report ->
      (match format with
      | `Text -> Format.printf "%a@." Repro_db.Scrub.pp report
      | `Json -> print_endline (Repro_db.Scrub.to_json report));
      if not (Repro_db.Scrub.is_clean report) then exit 1
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:
         "Verify a persisted write-ahead log offline (v2 text or v3 binary, auto-detected by \
          header): check every record's framing, CRC-32, sequence continuity and barrier \
          coverage, and report the damage (format version, clean / torn tail / corrupt, plus \
          the transaction ids recognizable in the damaged region). With $(b,--format=json), \
          emit the machine-readable verdict (schema repro-wal-scrub/1). Exits 0 only when \
          the log is clean.")
    Term.(const run $ file $ wal_output_format)

(* salvage: recover the longest valid durable prefix of a damaged WAL *)
let salvage_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Persisted WAL file.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the salvaged log.")
  in
  let run file out format =
    match Repro_db.Salvage.file ~path:file ~out with
    | Error msg ->
      prerr_endline (file ^ ": " ^ msg);
      exit 2
    | Ok outcome -> (
      match format with
      | `Text -> Format.printf "%a@." Repro_db.Salvage.pp outcome
      | `Json -> print_endline (Repro_db.Salvage.to_json outcome))
  in
  Cmd.v
    (Cmd.info "salvage"
       ~doc:
         "Recover the longest valid durable prefix of a (possibly damaged) write-ahead log \
          into $(b,--out), reporting what was dropped and which transaction ids were lost \
          (with $(b,--format=json), as schema repro-wal-salvage/1). Handles both WAL formats. \
          The salvaged image always verifies clean under $(b,scrub).")
    Term.(const run $ file $ out $ wal_output_format)

(* wal-migrate: rewrite a WAL image in format v3 *)
let wal_migrate_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Persisted WAL file.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the migrated log.")
  in
  let allow_damaged =
    Arg.(
      value & flag
      & info [ "allow-damaged" ]
          ~doc:
            "Migrate the recovered durable prefix of a damaged log instead of refusing \
             (the damage report goes to stderr).")
  in
  let run file out allow_damaged =
    let module Wal = Repro_db.Wal in
    let raw =
      match In_channel.with_open_bin file In_channel.input_all with
      | raw -> raw
      | exception Sys_error msg ->
        prerr_endline (file ^ ": " ^ msg);
        exit 2
    in
    match Wal.decode raw with
    | Error msg ->
      prerr_endline (file ^ ": " ^ msg);
      exit 2
    | Ok d ->
      (match d.Wal.d_verdict with
      | Wal.Clean -> ()
      | v ->
        Format.eprintf "%s: not clean: %a@." file Wal.pp_verdict v;
        if not allow_damaged then begin
          prerr_endline "refusing to migrate a damaged log (use --allow-damaged to migrate the recovered prefix)";
          exit 1
        end);
      let image = Wal.image_of ~entries:d.Wal.d_entries ~barriers:d.Wal.d_barriers in
      (* Round-trip check before anything touches disk: the migrated
         image must decode clean, byte-faithful to the source's durable
         prefix — same entries, same barrier structure. *)
      (match Wal.decode image with
      | Error msg ->
        prerr_endline ("migration round-trip failed to decode: " ^ msg);
        exit 3
      | Ok d' ->
        let entries_equal =
          List.length d.Wal.d_entries = List.length d'.Wal.d_entries
          && List.for_all2 Wal.entry_equal d.Wal.d_entries d'.Wal.d_entries
        in
        if d'.Wal.d_verdict <> Wal.Clean || not entries_equal
           || d.Wal.d_barriers <> d'.Wal.d_barriers
        then begin
          prerr_endline "migration round-trip mismatch: entries or barriers diverged";
          exit 3
        end;
        (* a clean v3 source must migrate to its own bytes *)
        if d.Wal.d_format = 3 && d.Wal.d_verdict = Wal.Clean && not (String.equal image raw)
        then begin
          prerr_endline "migration round-trip mismatch: same-format image not byte-identical";
          exit 3
        end);
      (match Out_channel.with_open_bin out (fun oc -> Out_channel.output_string oc image) with
      | () -> ()
      | exception Sys_error msg ->
        prerr_endline (out ^ ": " ^ msg);
        exit 2);
      Printf.printf "migrated %s (v%d, %d entries, %d barriers) -> %s (v3, %d bytes)\n" file
        d.Wal.d_format (List.length d.Wal.d_entries) (List.length d.Wal.d_barriers) out
        (String.length image)
  in
  Cmd.v
    (Cmd.info "wal-migrate"
       ~doc:
         "Rewrite a write-ahead log (legacy v2 text or v3) in the v3 binary frame format, \
          preserving entries and barrier coverage exactly. The migrated image is round-trip \
          verified before it is written: it must decode clean with identical entries and \
          barriers, and a clean v3 log must migrate to identical bytes. Refuses damaged \
          inputs unless $(b,--allow-damaged).")
    Term.(const run $ file $ out $ allow_damaged)

(* analyze: offline profile analysis of a transaction-type system file *)
let analyze_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Profile file (.rtx).")
  in
  let run file =
    let source = In_channel.with_open_text file In_channel.input_all in
    match Repro_lang.Parser.system_of_string source with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok sys -> (
      match Repro_lang.Analyze.analyze sys with
      | report -> Format.printf "%a@." Repro_lang.Analyze.pp_report report
      | exception Repro_lang.Analyze.Analysis_error msg ->
        prerr_endline ("analysis error: " ^ msg);
        exit 1)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Parse a transaction-profile file and run the offline canned-system analysis: per-type           read/write sets, additivity, compensability, and the pairwise can-precede matrix           (Section 5.1 / [AJL98]).")
    Term.(const run $ file)

(* scenario: play a scripted reconnection session *)
let scenario_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Scenario file (.scn).")
  in
  let reprocess_note =
    "Commands: init, base, mobile, connect [reprocess], expect, state — see      Repro_core.Scenario for the format."
  in
  let run obs file =
    let source = In_channel.with_open_text file In_channel.input_all in
    match with_observability obs (fun () -> Repro_core.Scenario.run source) with
    | Error msg ->
      prerr_endline msg;
      exit 1
    | Ok outcome ->
      Format.printf "%a" Repro_core.Scenario.pp_outcome outcome;
      if outcome.Repro_core.Scenario.failed_expectations > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:("Play a scripted reconnection session with assertions. " ^ reprocess_note))
    Term.(const run $ obs_term $ file)

(* all *)
let all_cmd =
  let run csv =
    print_tables ~csv (E1_example1.tables (E1_example1.run ()));
    print_tables ~csv [ E2_sync.table (E2_sync.run ~fleets:[ 2; 4; 8 ] ()) ];
    print_tables ~csv
      [ E2_sync.window_table (E2_sync.run_windows ~windows:[ 15.0; 30.0; 60.0; 120.0 ] ()) ];
    print_tables ~csv [ E3_savings.table (E3_savings.run ~skews:[ 0.0; 0.5; 0.9; 1.3 ] ()) ];
    print_tables ~csv
      [ E4_commute.table (E4_commute.run ~fractions:[ 0.0; 0.25; 0.5; 0.75; 1.0 ] ()) ];
    print_tables ~csv [ E5_cost.table (E5_cost.run ~overlaps:[ 0.0; 0.25; 0.5; 0.75; 1.0 ] ()) ];
    print_tables ~csv [ E6_backout.table (E6_backout.run ~skews:[ 0.3; 0.9 ] ()) ];
    print_tables ~csv [ E7_prune.table (E7_prune.run ~fractions:[ 0.25; 0.75; 1.0 ] ()) ];
    print_tables ~csv [ E8_scaling.table (E8_scaling.run ~fleets:[ 1; 2; 4; 8; 16 ] ()) ];
    print_tables ~csv [ E9_faults.table (E9_faults.run ~drops:[ 0.0; 0.2; 0.5 ] ()) ];
    print_tables ~csv [ A1_fixmode.table (A1_fixmode.run ~skews:[ 0.5; 1.0 ] ()) ];
    print_tables ~csv [ A2_setmode.table (A2_setmode.run ~skews:[ 0.5; 1.0 ] ()) ];
    print_tables ~csv [ A3_strategy.table (A3_strategy.run ~skews:[ 0.9 ] ()) ]
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment and ablation with default parameters.")
    Term.(const run $ csv_flag)

(* sim: one ad-hoc multi-node simulation *)
let sim_cmd =
  let open Repro_replication in
  let mobiles =
    Arg.(value & opt size 4 & info [ "mobiles" ] ~docv:"N" ~doc:"Number of mobile nodes.")
  in
  let duration = duration_arg 150.0 in
  let window =
    Arg.(
      value & opt positive_float 30.0 & info [ "window" ] ~docv:"W" ~doc:"Resync window length.")
  in
  let strategy1 =
    Arg.(value & flag & info [ "strategy1" ] ~doc:"Use Strategy 1 isolation (default: 2).")
  in
  let reprocess =
    Arg.(value & flag & info [ "reprocess" ] ~doc:"Use two-tier reprocessing (default: merge).")
  in
  let bias =
    Arg.(
      value & opt unit_interval 0.7
      & info [ "commuting-bias" ] ~docv:"F" ~doc:"Probability of commuting banking types.")
  in
  let profiles =
    Arg.(
      value
      & opt (some file) None
      & info [ "profiles" ] ~docv:"FILE"
          ~doc:"Drive the simulation from a transaction-profile file instead of the built-in                 banking mix.")
  in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:
            "Run every merge exchange as a resumable session over the fault-injection transport \
             (lib/fault) instead of a perfect atomic exchange.")
  in
  let drop_rate =
    Arg.(
      value & opt unit_interval 0.0
      & info [ "drop-rate" ] ~docv:"P"
          ~doc:"Message drop probability for the faulty transport (implies $(b,--faults)).")
  in
  let crash_at =
    Arg.(
      value & opt (some (int_at_least 1)) None
      & info [ "crash-at" ] ~docv:"N"
          ~doc:
            "Crash the base node on receipt of its $(docv)-th message of every merge session, \
             recover, and resume (implies $(b,--faults)).")
  in
  let net_seed =
    Arg.(
      value & opt int 99
      & info [ "net-seed" ] ~docv:"S" ~doc:"PRNG seed for the faulty transport.")
  in
  let retry_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "retry-seed" ] ~docv:"S"
          ~doc:
            "PRNG seed for the sessions' retry-backoff jitter streams (defaults to \
             $(b,--net-seed), so a run is reproducible from the transport seed alone).")
  in
  let jitter =
    Arg.(
      value & opt unit_interval 0.0
      & info [ "jitter" ] ~docv:"J"
          ~doc:
            "Retransmission jitter in [0, 1]: spread each retry's backoff by up to ±$(docv) \
             of the nominal timeout, drawn from the $(b,--retry-seed) stream (0.0 disables).")
  in
  let run obs mobiles duration window seed strategy1 reprocess bias profiles faults drop_rate
      crash_at net_seed retry_seed jitter =
    let workload =
      match profiles with
      | Some file -> (
        let source = In_channel.with_open_text file In_channel.input_all in
        match Repro_lang.Parser.system_of_string source with
        | Error msg ->
          prerr_endline msg;
          exit 1
        | Ok sys ->
          let gen = Repro_workload.Profile_gen.make sys in
          let seeding = Repro_workload.Rng.create (seed + 1) in
          {
            Sync.initial = Repro_workload.Profile_gen.initial_state gen seeding;
            Sync.make_mobile_txn =
              (fun rng ~name -> Repro_workload.Profile_gen.transaction gen rng ~name);
            Sync.make_base_txn =
              (fun rng ~name -> Repro_workload.Profile_gen.transaction gen rng ~name);
          })
      | None ->
        let bank = Repro_workload.Banking.make ~n_accounts:10 in
        {
          Sync.initial = Repro_workload.Banking.initial_state bank;
          Sync.make_mobile_txn =
            (fun rng ~name ->
              Repro_workload.Banking.random_transaction bank rng ~name ~commuting_bias:bias);
          Sync.make_base_txn =
            (fun rng ~name ->
              Repro_workload.Banking.random_transaction bank rng ~name ~commuting_bias:bias);
        }
    in
    if mobiles > 64 then
      Format.eprintf
        "note: sim is the serial pipeline; for %d mobiles the sharded service scales better — try \
         `repro_cli service-sim --mobiles %d`.@."
        mobiles mobiles;
    let faults = faults || drop_rate > 0.0 || crash_at <> None in
    let fault_runner =
      if not faults then None
      else begin
        let module Net = Repro_fault.Net in
        let module Session = Repro_fault.Session in
        let schedule =
          {
            Net.ideal with
            Net.drop_rate;
            Net.crashes =
              (match crash_at with Some n -> [ Net.Base_after_handling n ] | None -> []);
          }
        in
        let session = { Session.default_config with Session.jitter } in
        let runner, totals = Session.sync_runner ?retry_seed ~schedule ~session ~net_seed () in
        Some (runner, totals)
      end
    in
    let stats =
      with_observability obs @@ fun () ->
      Sync.run
        {
          Sync.default_config with
          Sync.n_mobiles = mobiles;
          Sync.duration;
          Sync.window;
          Sync.seed;
          Sync.isolation = (if strategy1 then Sync.Strategy1 else Sync.Strategy2);
          Sync.protocol =
            (if reprocess then Sync.Reprocessing else Sync.Merging Protocol.default_merge_config);
          Sync.merge_runner = Option.map fst fault_runner;
        }
        workload
    in
    let ppf = report_ppf obs in
    Format.fprintf ppf "%a@." Sync.pp_stats stats;
    match fault_runner with
    | Some (_, totals) -> Format.fprintf ppf "faults: %a@." Repro_fault.Session.pp_totals totals
    | None -> ()
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Run one multi-node banking simulation with custom parameters.")
    Term.(
      const run $ obs_term $ mobiles $ duration $ window $ seed_arg 7 $ strategy1 $ reprocess
      $ bias $ profiles $ faults $ drop_rate $ crash_at $ net_seed $ retry_seed $ jitter)

(* service-sim: large-scale run against the concurrent merge service *)
let service_sim_cmd =
  let open Repro_service in
  let mobiles =
    Arg.(value & opt size 10_000 & info [ "mobiles" ] ~docv:"N" ~doc:"Number of mobile nodes.")
  in
  let duration = duration_arg 15.0 in
  let window =
    Arg.(
      value & opt positive_float 5.0 & info [ "window" ] ~docv:"W" ~doc:"Resync window length.")
  in
  let shards =
    Arg.(
      value
      & opt (int_at_least 1) 16
      & info [ "shards" ] ~docv:"K" ~doc:"Item-space shard count.")
  in
  let domains =
    Arg.(
      value
      & opt (int_at_least 1) 1
      & info [ "domains" ] ~docv:"D" ~doc:"Worker domains (1 = inline).")
  in
  let scheme =
    Arg.(
      value
      & opt (enum [ ("range", `Range); ("hash", `Hash) ]) `Range
      & info [ "scheme" ] ~docv:"SCHEME"
          ~doc:"Shard map: $(b,range) (contiguous item blocks) or $(b,hash).")
  in
  let locality =
    Arg.(
      value & opt unit_interval 0.99
      & info [ "locality" ] ~docv:"P"
          ~doc:"Probability an item pick stays in the mobile's home region.")
  in
  let disconnect_alpha =
    Arg.(
      value
      & opt (some tail_index) (Some 1.6)
      & info [ "disconnect-alpha" ] ~docv:"A"
          ~doc:
            "Pareto tail index for power-law disconnection lengths, a finite number above 1; \
             omit via $(b,--exp-disconnects) for exponential.")
  in
  let exp_disconnects =
    Arg.(
      value & flag
      & info [ "exp-disconnects" ] ~doc:"Exponential disconnection lengths (paper's base model).")
  in
  let connect_gap =
    Arg.(
      value & opt positive_float 2.0
      & info [ "connect-gap" ] ~docv:"T" ~doc:"Mean disconnection length.")
  in
  let shared_items =
    Arg.(
      value
      & opt (int_at_least 1) 128
      & info [ "shared-items" ] ~docv:"N" ~doc:"Global hot-pool size.")
  in
  let zipf_skew =
    Arg.(
      value & opt finite_float 0.9 & info [ "zipf-skew" ] ~docv:"Z" ~doc:"Shared-pool Zipf skew.")
  in
  let no_baseline =
    Arg.(
      value & flag
      & info [ "no-baseline" ]
          ~doc:"Skip the single-domain baseline run (faster; loses the wall-speedup figure).")
  in
  let min_speedup =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-speedup" ] ~docv:"X"
          ~doc:"Fail unless the cost-model speedup reaches $(docv).")
  in
  let expect_parallel =
    Arg.(
      value & flag
      & info [ "expect-parallel" ] ~doc:"Fail unless at least one window dispatched in parallel.")
  in
  let live =
    Arg.(
      value
      & opt ~vopt:(Some 0.0) (some float) None
      & info [ "live" ] ~docv:"SECS"
          ~doc:
            "Flight recorder: print a live dashboard block to stderr after each resync window \
             (sessions/sec, per-shard queue depth and conflict rate, per-worker utilization, \
             merge-latency histogram, WAL force rate). With $(docv), throttle to at most one \
             block per $(docv) wall seconds (the final window always prints).")
  in
  let live_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "live-out" ] ~docv:"FILE"
          ~doc:
            "Stream every flight-recorder sample to $(docv) as NDJSON (one JSON object per \
             window), independent of the $(b,--live) dashboard throttle.")
  in
  let run obs trace_clock mobiles duration window seed shards domains scheme locality
      disconnect_alpha exp_disconnects connect_gap shared_items zipf_skew no_baseline min_speedup
      expect_parallel live live_out =
    let cfg =
      {
        Sim.default_config with
        Sim.mobiles;
        Sim.duration;
        Sim.window;
        Sim.seed;
        Sim.shards;
        Sim.domains;
        Sim.range_shards = (scheme = `Range);
        Sim.locality;
        Sim.disconnect_alpha = (if exp_disconnects then None else disconnect_alpha);
        Sim.mean_connect_gap = connect_gap;
        Sim.shared_items;
        Sim.zipf_skew;
      }
    in
    (* The flight recorder needs live counters even when no metrics
       output format was requested. *)
    if live <> None || live_out <> None then Repro_obs.Obs.set_enabled true;
    let live_oc = Option.map Out_channel.open_text live_out in
    let last_dash = ref neg_infinity in
    let recorder =
      if live = None && live_out = None then None
      else
        Some
          (fun (s : Flight.sample) ->
            (match live_oc with
            | Some oc ->
              Out_channel.output_string oc (Flight.to_ndjson s);
              Out_channel.output_char oc '\n';
              Out_channel.flush oc
            | None -> ());
            match live with
            | Some interval when s.Flight.final || s.Flight.wall_s -. !last_dash >= interval ->
              last_dash := s.Flight.wall_s;
              prerr_string (Flight.to_text s);
              flush stderr
            | _ -> ())
    in
    let result =
      Fun.protect
        ~finally:(fun () -> Option.iter Out_channel.close live_oc)
        (fun () ->
          with_observability ~trace_clock obs @@ fun () ->
          Sim.run ~baseline:(not no_baseline) ?recorder cfg)
    in
    Format.fprintf (report_ppf obs) "%a@." Sim.pp_result result;
    let det = result.Sim.report.Service.det in
    let failures =
      List.filter_map Fun.id
        [
          (if det.Service.violations > 0 then
             Some (Printf.sprintf "%d windows failed the ground-truth check" det.Service.violations)
           else None);
          (if not result.Sim.baseline_matches then
             Some "parallel run diverged from the single-domain baseline"
           else None);
          (if result.Sim.obs_parity = Some false then
             Some "merged metrics diverged from the single-domain run"
           else None);
          (if expect_parallel && det.Service.parallel_windows = 0 then
             Some "no window dispatched more than one component"
           else None);
          (match min_speedup with
          | Some x when result.Sim.report.Service.speedup < x ->
            Some
              (Printf.sprintf "cost-model speedup %.2fx below required %.2fx"
                 result.Sim.report.Service.speedup x)
          | _ -> None);
        ]
    in
    if failures <> [] then begin
      List.iter (Format.eprintf "service-sim: %s@.") failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "service-sim"
       ~doc:
         "Run a large-scale (10k-100k mobile) simulation against the sharded concurrent merge \
          service and report sessions/sec, merge-latency quantiles and parallel speedup.")
    Term.(
      const run $ obs_term $ trace_clock_arg $ mobiles $ duration $ window $ seed_arg 42
      $ shards $ domains $ scheme $ locality $ disconnect_alpha $ exp_disconnects $ connect_gap
      $ shared_items $ zipf_skew $ no_baseline $ min_speedup $ expect_parallel $ live $ live_out)

(* metrics-diff: compare two metric snapshots on deterministic metrics *)
let metrics_diff_cmd =
  let module Report = Repro_obs.Report in
  let file_a = Arg.(required & pos 0 (some file) None & info [] ~docv:"A") in
  let file_b = Arg.(required & pos 1 (some file) None & info [] ~docv:"B") in
  let parse path =
    let src = In_channel.with_open_text path In_channel.input_all in
    let parsed =
      if Filename.check_suffix path ".csv" then Report.of_csv src else Report.of_json src
    in
    match parsed with
    | Ok r -> Report.strip_timings r
    | Error msg ->
      Format.eprintf "metrics-diff: %s: %s@." path msg;
      exit 2
  in
  (* Key every CSV row by its "kind,name" prefix so the diff is
     per-metric, not positional. *)
  let rows r =
    Report.to_csv r |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ',' line with
           | kind :: name :: _ when line <> "" && kind <> "kind" -> Some (kind ^ "," ^ name, line)
           | _ -> None)
  in
  let run a b =
    let ra = parse a and rb = parse b in
    if Report.deterministic_equal ra rb then
      print_endline "metrics-diff: reports agree on all deterministic metrics"
    else begin
      let la = rows ra and lb = rows rb in
      let tb = Hashtbl.create 64 in
      List.iter (fun (k, line) -> Hashtbl.replace tb k line) lb;
      List.iter
        (fun (k, line) ->
          match Hashtbl.find_opt tb k with
          | Some other when other = line -> Hashtbl.remove tb k
          | Some other ->
            Hashtbl.remove tb k;
            Printf.printf "- %s\n+ %s\n" line other
          | None -> Printf.printf "- %s\n" line)
        la;
      List.iter (fun (k, line) -> if Hashtbl.mem tb k then Printf.printf "+ %s\n" line) lb;
      Format.eprintf "metrics-diff: %s and %s disagree on deterministic metrics@." a b;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "metrics-diff"
       ~doc:
         "Compare two metric snapshots (JSON from $(b,--metrics=json), or CSV) on deterministic \
          metrics only: timing-tagged distributions and span durations are stripped before the \
          comparison. Exits 1 and prints a per-metric diff on mismatch.")
    Term.(const run $ file_a $ file_b)

(* bases-sim: one multi-base epidemic-replication simulation *)
let bases_sim_cmd =
  let module MB = Repro_multibase in
  let bases =
    Arg.(
      value & opt (int_at_least 2) 3 & info [ "bases" ] ~docv:"N" ~doc:"Number of replica bases.")
  in
  let mobiles =
    Arg.(
      value & opt (int_at_least 1) 3 & info [ "mobiles" ] ~docv:"N" ~doc:"Number of mobile nodes.")
  in
  let ops =
    Arg.(
      value & opt int 30
      & info [ "ops" ] ~docv:"N"
          ~doc:
            "Number of cluster operations (mobile syncs, base transactions, anti-entropy \
             exchanges, crash-restarts, clock ticks) before healing.")
  in
  let partition_rate =
    Arg.(
      value & opt unit_interval 0.3
      & info [ "base-partition-rate" ] ~docv:"P"
          ~doc:
            "Probability a drawn base-pair (or mobile) link schedule carries a partition; half \
             of those are hard — down for the whole exchange.")
  in
  let crash_at =
    Arg.(
      value
      & opt (some (int_at_least 1)) None
      & info [ "base-crash-at" ] ~docv:"N"
          ~doc:
            "Crash-restart the responding base on receipt of its $(docv)-th message of every \
             anti-entropy exchange (replaces the randomly drawn crash points).")
  in
  let run obs bases mobiles ops seed partition_rate crash_at =
    let ok =
      with_observability obs @@ fun () ->
      let case =
        MB.Mb_nemesis.random_case ~partition_rate ?crash_at ~bases ~mobiles ~n_ops:ops ~seed ()
      in
      let cluster =
        MB.Cluster.create ~bases:case.MB.Mb_nemesis.bases ~mobiles:case.MB.Mb_nemesis.mobiles
          ~n_accounts:8 ()
      in
      MB.Cluster.run_ops cluster case.MB.Mb_nemesis.ops;
      let violations = MB.Cluster.check cluster in
      let ppf = report_ppf obs in
      Format.fprintf ppf "%a@." MB.Cluster.pp_stats (MB.Cluster.stats cluster);
      List.iter (fun v -> Format.fprintf ppf "VIOLATION: %s@." v) violations;
      violations = []
    in
    if not ok then exit 1
  in
  Cmd.v
    (Cmd.info "bases-sim"
       ~doc:
         "Run one multi-base simulation: bases replicate merged mobile sessions to each other \
          by anti-entropy over faulty links (partitions, asymmetric drops, crash-restarts), \
          commitment is decided without consensus, then the cluster heals and the convergence \
          contract is checked — identical durable stable state everywhere, no phantom commits, \
          serializable committed history. Exits 1 on any violation.")
    Term.(
      const run $ obs_term $ bases $ mobiles $ ops $ seed_arg 2026 $ partition_rate $ crash_at)

let nemesis_bases_cmd =
  let module MN = Repro_multibase.Mb_nemesis in
  let count =
    Arg.(
      value & opt size 200
      & info [ "count" ] ~docv:"N" ~doc:"Number of random cluster cases to check.")
  in
  let partition_rate =
    Arg.(
      value & opt unit_interval 0.3
      & info [ "base-partition-rate" ] ~docv:"P"
          ~doc:"Per-schedule partition probability (half hard, half transient).")
  in
  let crash_rate =
    Arg.(
      value & opt unit_interval 0.2
      & info [ "base-crash-rate" ] ~docv:"P"
          ~doc:"Per-schedule probability of an injected responder crash-restart.")
  in
  let run count seed partition_rate crash_rate =
    let sweep = MN.run_sweep ~partition_rate ~crash_rate ~seed ~count () in
    Format.printf "%a@." MN.pp_sweep sweep;
    if sweep.Repro_fault.Sweep.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "nemesis-bases"
       ~doc:
         "Run random multi-base clusters under the base-partition nemesis (base-from-base \
          partitions, asymmetric links, base crash/restart injection, faulty mobile sessions \
          against arbitrary bases) and check the convergence contract after healing. Exits 1 \
          on any violation.")
    Term.(const run $ count $ seed_arg 2026 $ partition_rate $ crash_rate)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "repro_cli" ~version:"1.0.0"
      ~doc:
        "Reproduction of Liu/Ammann/Jajodia (ICDCS'99): merging histories to reduce \
         reprocessing overhead in two-tier replicated mobile databases."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            e1_cmd; e2_cmd; e3_cmd; e4_cmd; e5_cmd; e6_cmd; e7_cmd; e8_cmd; e9_cmd; a1_cmd;
            a2_cmd; a3_cmd;
            all_cmd; sim_cmd; service_sim_cmd; metrics_diff_cmd; merge_cmd; explain_cmd;
            validate_json_cmd; scrub_cmd; salvage_cmd; wal_migrate_cmd; analyze_cmd;
            scenario_cmd; nemesis_cmd;
            bases_sim_cmd; nemesis_bases_cmd;
          ]))
