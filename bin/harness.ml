(* The run harness shared by every amber_sim subcommand: the cluster
   configuration term, the instrument terms, one [run] that brackets a
   workload body with the chosen instruments and prints their sections
   in a fixed order, and the exit policy. *)

open Cmdliner

(* --- exit policy ---------------------------------------------------------- *)

let findings = 3
let slo_fired = 4
let sim_failed = 5

let exits =
  let info code doc = Cmd.Exit.info code ~doc in
  [
    info Cmd.Exit.ok "on success.";
    info findings "on findings: sanitizer, trace lint or model checker.";
    info slo_fired "when an SLO monitor fires and there are no findings.";
    info sim_failed
      "on a typed simulation failure (deadlock, dead node, lost object).";
    info Cmd.Exit.cli_error
      "on a usage error: a bad option value, fixture or mutation.";
    info Cmd.Exit.internal_error "on an internal error (a bug).";
  ]

let cmd name ~doc term = Cmd.v (Cmd.info name ~doc ~exits) term

(* A typed simulation failure as one line; [None] for anything else. *)
let rec failure = function
  | Amber.Cluster.Deadlock ->
    Some "deadlock: the event queue drained before the main thread finished"
  | Topaz.Rpc.Node_dead { node } -> Some (Printf.sprintf "node %d is dead" node)
  | Amber.Aobject.Object_lost { name; _ } ->
    Some (Printf.sprintf "object %s was lost with its node" name)
  | Amber.Athread.Join_failed { thread; error; _ } ->
    Option.map (Printf.sprintf "thread %s failed: %s" thread) (failure error)
  | _ -> None

(* --- cluster configuration ----------------------------------------------- *)

let nodes_arg =
  Arg.(value & opt int 4 & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Cluster nodes.")

let cpus_arg =
  Arg.(value & opt int 4 & info [ "cpus"; "p" ] ~docv:"P" ~doc:"CPUs per node.")

let stall_conv =
  let parse s =
    let bad = Error (`Msg "stall: expected NODE:FROM:UNTIL") in
    match String.split_on_char ':' s with
    | [ n; f; u ] -> (
      try
        Ok
          {
            Hw.Ethernet.node = int_of_string (String.trim n);
            from_t = float_of_string (String.trim f);
            until_t = float_of_string (String.trim u);
          }
      with _ -> bad)
    | _ -> bad
  in
  let print ppf ({ node; from_t; until_t } : Hw.Ethernet.stall) =
    Format.fprintf ppf "%d:%g:%g" node from_t until_t
  in
  Arg.conv (parse, print)

let faults_term =
  let drop =
    Arg.(
      value & opt float 0.0
      & info [ "drop" ] ~docv:"P" ~doc:"Per-packet loss probability, [0,1).")
  in
  let dup =
    Arg.(
      value & opt float 0.0
      & info [ "dup" ] ~docv:"P"
          ~doc:"Per-packet duplicate-delivery probability, [0,1).")
  in
  let delay_prob =
    Arg.(
      value & opt float 0.0
      & info [ "delay-prob" ] ~docv:"P"
          ~doc:"Per-packet latency-spike probability, [0,1).")
  in
  let delay_spike =
    Arg.(
      value & opt float 10e-3
      & info [ "delay-spike" ] ~docv:"SECONDS"
          ~doc:"Extra delivery latency on a spike (default 10 ms).")
  in
  let stalls =
    Arg.(
      value
      & opt_all stall_conv []
      & info [ "stall" ] ~docv:"NODE:FROM:UNTIL"
          ~doc:
            "Hold packets arriving at NODE between virtual times FROM and \
             UNTIL (seconds); repeatable.")
  in
  let mk drop_prob dup_prob delay_prob delay_spike stalls =
    { Hw.Ethernet.drop_prob; dup_prob; delay_prob; delay_spike; stalls }
  in
  Term.(const mk $ drop $ dup $ delay_prob $ delay_spike $ stalls)

let seed_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sim-seed" ] ~docv:"S"
        ~doc:
          "Simulation seed (also seeds the fault pattern; same seed, same \
           faults).")

let crash_conv =
  (* NODE@T[:RESTART]; times are virtual seconds and accept a trailing
     "s" (e.g. 3@0.2s:0.6s). *)
  let seconds s =
    let s = String.trim s in
    let n = String.length s in
    let s = if n > 0 && s.[n - 1] = 's' then String.sub s 0 (n - 1) else s in
    float_of_string s
  in
  let parse s =
    let bad = Error (`Msg "crash: expected NODE@T[:RESTART]") in
    match String.split_on_char '@' s with
    | [ n; times ] -> (
      try
        let cnode = int_of_string (String.trim n) in
        match List.map seconds (String.split_on_char ':' times) with
        | [ at ] -> Ok { Amber.Config.cnode; at; restart = None }
        | [ at; r ] -> Ok { Amber.Config.cnode; at; restart = Some r }
        | _ -> bad
      with _ -> bad)
    | _ -> bad
  in
  let print ppf ({ cnode; at; restart } : Amber.Config.crash) =
    match restart with
    | None -> Format.fprintf ppf "%d@@%g" cnode at
    | Some r -> Format.fprintf ppf "%d@@%g:%g" cnode at r
  in
  Arg.conv (parse, print)

let crashes_term =
  let crashes =
    Arg.(
      value
      & opt_all crash_conv []
      & info [ "crash" ] ~docv:"NODE@T[:RESTART]"
          ~doc:
            "Crash NODE at virtual time T (seconds; values may carry a \
             trailing \"s\").  With :RESTART the outage is transient — the \
             node freezes, drops its packets, and resumes at RESTART.  \
             Without it the crash is fail-stop: the node's threads and \
             unreplicated objects are lost and replicated objects are \
             re-mastered on a surviving replica.  Repeatable; at most one \
             crash per node, and node 0 is not crashable.")
  in
  let rate =
    Arg.(
      value & opt float 0.0
      & info [ "crash-rate" ] ~docv:"P"
          ~doc:
            "Probabilistic crash mode: each node > 0 independently suffers \
             one transient crash with probability P, at a seed-derived \
             virtual time (same seed, same crashes).")
  in
  let mk crashes rate = (crashes, rate) in
  Term.(const mk $ crashes $ rate)

(* The cluster configuration, checked with [Amber.Config.validate] while
   the command line is parsed, so a bad value is a usage error. *)
let config =
  let mk nodes cpus faults seed (crashes, crash_rate) =
    let seed = Option.map Int64.of_int seed in
    let cfg =
      Amber.Config.make ~nodes ~cpus ?seed ~faults ~crashes ~crash_rate ()
    in
    match Amber.Config.validate cfg with
    | () -> Ok cfg
    | exception Invalid_argument msg -> Error msg
  in
  Term.(
    cli_parse_result'
      (const mk $ nodes_arg $ cpus_arg $ faults_term $ seed_arg $ crashes_term))

(* --- instruments ---------------------------------------------------------- *)

type watch_opts = {
  w_on : bool;
  w_interval : float;
  w_out : string option;
  w_csv : string option;
  w_slo : Watch.Slo.rule list;
  w_flight : string option;
}

type instruments = {
  sanitize : bool;
  lint : bool;
  report : bool;
  balance : Balance.Driver.cfg;
  profile : bool;
  out : string option;
  jsonl : bool;
  watch : watch_opts;
}

(* Any export or SLO rule implies the sampling tick. *)
let watch_opts watch interval out csv slo flight =
  {
    w_on = watch || out <> None || csv <> None || slo <> [];
    w_interval = interval;
    w_out = out;
    w_csv = csv;
    w_slo = slo;
    w_flight = flight;
  }

(* Every instrument off: nothing attaches and the run is untouched. *)
let off =
  {
    sanitize = false;
    lint = false;
    report = false;
    balance = Balance.Driver.default_cfg;
    profile = false;
    out = None;
    jsonl = false;
    watch = watch_opts false 5e-3 None None [] None;
  }

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Run under AmberSan: report data races, lock-order cycles and \
           coherence drift; exit 3 on any finding.")

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Record sanitizer events during the run and lint the trace offline \
           with AmberSan afterwards.  Findings are reported on stdout and the \
           exit status is 3, exactly like an online $(b,--sanitize) run; a \
           clean trace exits 0.")

let report_arg =
  Arg.(
    value & flag
    & info [ "report" ]
        ~doc:
          "Print the full cluster report after the run: per-node utilization \
           and protocol counters, plus the per-class $(b,serve:) section and \
           the $(b,watch:) series summary when those run.")

let balance_term =
  let policy =
    let policy_conv =
      Arg.enum
        [
          ("off", Balance.Rebalancer.Off);
          ("steal_only", Balance.Rebalancer.Steal_only);
          ("affinity", Balance.Rebalancer.Affinity);
          ("hybrid", Balance.Rebalancer.Hybrid);
        ]
    in
    Arg.(
      value
      & opt policy_conv Balance.Rebalancer.Off
      & info [ "balance" ] ~docv:"POLICY"
          ~doc:
            "Adaptive placement policy: $(b,off), $(b,steal_only), \
             $(b,affinity) or $(b,hybrid) (affinity + load spreading).")
  in
  let steal =
    Arg.(
      value & flag
      & info [ "steal" ]
          ~doc:
            "Let idle nodes steal runnable unbound threads from loaded \
             peers (implied by --balance=steal_only).")
  in
  let gossip =
    Arg.(
      value & opt float 10e-3
      & info [ "gossip-interval" ] ~docv:"SECONDS"
          ~doc:"Load-board gossip / steal tick period (default 10 ms).")
  in
  let mk policy steal gossip_interval =
    { Balance.Driver.default_cfg with policy; steal; gossip_interval }
  in
  Term.(const mk $ policy $ steal $ gossip)

let profile_flag =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Enable causal span tracing and print the virtual-time profile \
           and critical-path decomposition after the run.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          "Write the span trace as Chrome trace-event JSON (loadable in \
           Perfetto) to $(docv).  Implies $(b,--profile).")

let slo_conv =
  let parse s =
    match Watch.Slo.parse s with Ok r -> Ok r | Error e -> Error (`Msg e)
  in
  let print ppf (r : Watch.Slo.rule) =
    Format.pp_print_string ppf r.Watch.Slo.text
  in
  Arg.conv (parse, print)

let watch_term =
  let watch_flag =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:
            "Enable continuous telemetry: sample the scheduler, RPC, \
             replication, balance and serve instruments on a recurring \
             virtual-time tick into bounded time series, summarized in the \
             report's $(b,watch:) section and exportable with \
             $(b,--watch-out) / $(b,--watch-csv).")
  in
  let interval =
    Arg.(
      value & opt float 5e-3
      & info [ "watch-interval" ] ~docv:"SECONDS"
          ~doc:"Sampling tick period, virtual seconds (default 5 ms).")
  in
  let watch_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "watch-out" ] ~docv:"FILE"
          ~doc:
            "Write every sampled series to $(docv) as JSON Lines (one \
             series object per line).  Implies $(b,--watch).")
  in
  let watch_csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "watch-csv" ] ~docv:"FILE"
          ~doc:
            "Write every sampled series to $(docv) as long-format CSV \
             (series,node,kind,time_s,value).  Implies $(b,--watch).")
  in
  let slo =
    Arg.(
      value
      & opt_all slo_conv []
      & info [ "slo" ] ~docv:"RULE"
          ~doc:
            "Multi-window SLO burn-rate rule over a sampled series, e.g. \
             $(b,serve.latency_ms.p99<=60) or \
             $(b,serve.latency_ms.rate>=800@0.2) (@BUDGET is the allowed \
             bad-sample fraction, default 0.1).  The run exits 4 when both \
             the short and the long trailing windows burn the budget at \
             rate >= 1.  Repeatable; implies $(b,--watch).")
  in
  let flight =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-recorder" ] ~docv:"DIR"
          ~doc:
            "Arm the failure flight recorder: on any typed failure (node \
             death, object loss, first overload shed, sanitizer finding) \
             dump a postmortem JSON artifact — the trailing trace window \
             plus the victim node's final spans — under $(docv).")
  in
  Term.(
    const watch_opts $ watch_flag $ interval $ watch_out $ watch_csv $ slo
    $ flight)

(* Instrument sets: a command starts from [sanitized] or [off] and adds the
   instruments whose flags it offers; the others stay off. *)

let sanitized =
  Term.(const (fun sanitize -> { off with sanitize }) $ sanitize_arg)

let with_report t =
  Term.(const (fun i report -> { i with report }) $ t $ report_arg)

let with_balance t =
  Term.(const (fun i balance -> { i with balance }) $ t $ balance_term)

let with_profile t =
  Term.(
    const (fun i profile out ->
        { i with profile = profile || out <> None; out })
    $ t $ profile_flag $ out_arg)

let with_watch t =
  Term.(const (fun i watch -> { i with watch }) $ t $ watch_term)

(* Everything sor, serve and watch offer. *)
let all = sanitized |> with_report |> with_balance |> with_profile |> with_watch

(* --- run ------------------------------------------------------------------ *)

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

let sanitizer_section san =
  let rep = Analysis.Ambersan.finalize san in
  Format.printf "%a" Analysis.Ambersan.pp_report rep;
  Analysis.Ambersan.failed rep

let lint_section rt =
  let rep =
    Analysis.Ambersan.lint_trace (Sim.Trace.records (Amber.Runtime.trace rt))
  in
  Format.printf "offline lint: %a" Analysis.Ambersan.pp_report rep;
  let span_findings =
    Analysis.Spanlint.lint (Sim.Span.spans (Amber.Runtime.spans rt))
  in
  (match span_findings with
  | [] -> print_endline "span balance: OK"
  | fs ->
    Printf.printf "span balance: %d findings\n" (List.length fs);
    List.iter (fun f -> print_endline ("  " ^ f)) fs);
  Analysis.Ambersan.failed rep || span_findings <> []

(* The profile and critical-path decomposition; the Chrome trace export
   (with the watch series as Perfetto counter tracks) and the JSON Lines
   span dump when asked for. *)
let profile_section ins watch prof =
  List.iter print_endline (Scope.Profile.report_lines prof);
  Format.printf "%a" Scope.Critical_path.pp (Scope.Profile.critical_path prof);
  (match ins.out with
  | None -> ()
  | Some path ->
    let counters = match watch with Some t -> Watch.series t | None -> [] in
    let spans = Scope.Profile.spans prof in
    write_file path
      (Scope.Export.chrome_json ~counters ~clip:(Scope.Profile.total prof)
         spans);
    Printf.printf "wrote %s (%d spans)\n" path (List.length spans));
  if ins.jsonl then
    List.iter print_endline
      (Scope.Export.spans_jsonl ~clip:(Scope.Profile.total prof)
         (Scope.Profile.spans prof))

(* Series exports and SLO verdicts; true when an SLO fired. *)
let watch_section w t =
  let series = Watch.series t in
  let export contents path =
    write_file path contents;
    Printf.printf "wrote %s (%d series)\n" path (List.length series)
  in
  Option.iter
    (export
       (String.concat ""
          (List.map (fun l -> l ^ "\n") (Scope.Export.series_jsonl series))))
    w.w_out;
  Option.iter (export (Scope.Export.series_csv series)) w.w_csv;
  let outcomes = Watch.outcomes t in
  List.iter (fun o -> print_endline (Watch.Slo.outcome_line o)) outcomes;
  Watch.Slo.any_fired outcomes

(* Run [body] on a fresh cluster under [ins], then print: the cluster
   report (inside the run, once the body returns), the sanitizer and lint
   sections, the command's own lines ([print]), the profile, the watch
   verdicts and the flight recorder.  Returns the exit status. *)
let run cfg ins body print =
  let san = ref None and prof = ref None in
  let watch = ref None and flight = ref None in
  let in_cluster rt =
    (* Attach order: the sanitizer and profiler see every event; the
       flight recorder arms before the watch tick so failure hooks are
       live for the whole run. *)
    if ins.sanitize then san := Some (Analysis.Ambersan.attach rt);
    if ins.lint then begin
      Sim.Trace.set_enabled (Amber.Runtime.trace rt) true;
      Sim.Span.set_enabled (Amber.Runtime.spans rt) true;
      (* Record the "san" event stream without online analysis. *)
      ignore (Analysis.Ambersan.attach ~analyze:false rt : Analysis.Ambersan.t)
    end;
    if ins.profile then prof := Some (Scope.Profile.attach rt);
    let w = ins.watch in
    flight := Option.map (fun dir -> Watch.Flight.attach rt ~dir ()) w.w_flight;
    if w.w_on then begin
      let cfg = { Watch.default_cfg with Watch.interval = w.w_interval } in
      watch := Some (Watch.attach rt ~cfg ~slo:w.w_slo ?flight:!flight ())
    end;
    let lb = Balance.Driver.start rt ins.balance in
    let r = body rt in
    (* Teardown in reverse: stop the balancer and the tick so the engine
       can quiesce, then capture the report and seal the profile, so the
       measured region excludes the cluster's shutdown. *)
    Balance.Driver.stop lb;
    Option.iter Watch.stop !watch;
    if ins.report then
      Format.printf "@.%a" Amber.Stats_report.pp
        (Amber.Stats_report.capture rt);
    Option.iter Scope.Profile.seal !prof;
    (rt, r)
  in
  match Amber.Cluster.run_value cfg in_cluster with
  | exception e when failure e <> None ->
    Printf.eprintf "amber_sim: simulation failed: %s\n"
      (Option.get (failure e));
    sim_failed
  | rt, r ->
    let sanitizer_found =
      Option.fold ~none:false ~some:sanitizer_section !san
    in
    print r;
    let lint_found = ins.lint && lint_section rt in
    Option.iter (profile_section ins !watch) !prof;
    let fired =
      Option.fold ~none:false ~some:(watch_section ins.watch) !watch
    in
    Option.iter
      (fun f -> List.iter print_endline (Watch.Flight.report_lines f))
      !flight;
    if sanitizer_found || lint_found then findings
    else if fired then slo_fired
    else Cmd.Exit.ok
