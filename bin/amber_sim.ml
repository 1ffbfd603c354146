(* amber_sim — command-line driver for the Amber reproduction.

   Subcommands:
     sor        run Red/Black SOR (amber | ivy | seq, sync or --async)
     workqueue  run the distributed work-queue workload
     matmul     run the replicated matrix multiply
     tsp        run branch-and-bound TSP with work stealing
     readmostly run the read-mostly workload (replicas vs remote reads)
     serve      serve open-loop traffic with per-class SLO reporting
     watch      run a serve scenario under continuous telemetry
     trace      run a small scenario with protocol tracing and dump it
     profile    run a workload under the span profiler
     fixture    run a seeded sanitizer fixture
     check      model-check a protocol fixture

   Each subcommand here is its own flags, a workload body and its printed
   lines; the cluster configuration, the instrument flags, the run and
   the exit policy live in harness.ml.

   Examples:
     amber_sim sor --nodes 8 --cpus 4 --iters 20
     amber_sim sor --system ivy --nodes 4 --cpus 2 --rows 32 --cols 64
     amber_sim workqueue --items 400 --move-at 150
     amber_sim serve --rps 400 --duration 0.5 --report
     amber_sim check all
     amber_sim trace *)

open Cmdliner

(* --- sor ---------------------------------------------------------------- *)

let grid_term =
  let rows =
    Arg.(value & opt int 122 & info [ "rows" ] ~docv:"R" ~doc:"Grid rows.")
  in
  let cols =
    Arg.(value & opt int 842 & info [ "cols" ] ~docv:"C" ~doc:"Grid columns.")
  in
  let mk rows cols =
    Workloads.Sor_core.with_size Workloads.Sor_core.default ~rows ~cols
  in
  Term.(const mk $ rows $ cols)

let iters_arg =
  Arg.(value & opt int 10 & info [ "iters"; "i" ] ~docv:"I" ~doc:"Iterations.")

let sor_cmd =
  let system =
    Arg.(
      value
      & opt (enum [ ("amber", `Amber); ("ivy", `Ivy); ("seq", `Seq) ]) `Amber
      & info [ "system" ] ~docv:"SYSTEM"
          ~doc:"Implementation to run: $(b,amber), $(b,ivy) or $(b,seq).")
  in
  let sections =
    Arg.(
      value
      & opt (some int) None
      & info [ "sections" ] ~docv:"S" ~doc:"Section count (amber only).")
  in
  let no_overlap =
    Arg.(
      value & flag
      & info [ "no-overlap" ]
          ~doc:"Disable overlapping of edge exchange with computation.")
  in
  let skew =
    Arg.(
      value & flag
      & info [ "skew" ]
          ~doc:
            "Pathological placement: create every section on node 0 \
             (amber only; a load-balancer stress input).")
  in
  let async_flag =
    Arg.(
      value & flag
      & info [ "async" ]
          ~doc:
            "Run the pipelined variant (amber only): futures-based edge \
             exchange and convergence barrier overlapping the interior \
             computation.")
  in
  let coalesce_window =
    Arg.(
      value
      & opt (some float) None
      & info [ "coalesce-window" ] ~docv:"SECONDS"
          ~doc:
            "Enable wire-level datagram coalescing with the given flush \
             window (e.g. 200e-6).")
  in
  let run cfg coalesce system p iters sections no_overlap skew async ins =
    let cfg : Amber.Config.t =
      match coalesce with
      | Some w when w > 0.0 ->
        let c = { Topaz.Rpc.default_coalesce with flush_window = w } in
        { cfg with rpc_coalesce = Some c }
      | Some _ | None -> cfg
    in
    let seq_pred = Workloads.Sor_seq.predicted_elapsed p ~iters in
    let sor_cfg rt =
      let c = Workloads.Sor_amber.default_cfg rt in
      {
        c with
        Workloads.Sor_amber.sections =
          Option.value sections ~default:c.sections;
        overlap = not no_overlap;
        placement = (if skew then Some (fun _ -> 0) else c.placement);
      }
    in
    let headline name elapsed checksum =
      Printf.sprintf
        "%s %dNx%dP: compute %.3f virtual s, speedup %.2f, checksum %.6g\n" name
        cfg.nodes cfg.cpus_per_node elapsed (seq_pred /. elapsed) checksum
    in
    (* One run path for every system: the body returns the lines the
       result prints. *)
    let body rt =
      match (system, async) with
      | `Seq, _ ->
        let r = Workloads.Sor_seq.run rt p ~iters in
        [
          Printf.sprintf
            "sequential: %d iterations in %.3f virtual s (checksum %.6g)\n"
            r.iterations r.compute_elapsed r.checksum;
        ]
      | `Amber, false ->
        let r = Workloads.Sor_amber.run rt p ~cfg:(sor_cfg rt) ~iters () in
        [
          headline "amber" r.compute_elapsed r.checksum;
          Printf.sprintf "  remote invocations: %d, thread migrations: %d\n"
            r.remote_invocations r.thread_migrations;
        ]
      | `Amber, true ->
        let r = Workloads.Sor_pipe.run rt p ~cfg:(sor_cfg rt) ~iters () in
        [
          headline "amber-async" r.compute_elapsed r.checksum;
          Printf.sprintf
            "  remote invocations: %d, thread migrations: %d, async \
             invocations: %d\n"
            r.remote_invocations r.thread_migrations r.async_invocations;
        ]
      | `Ivy, _ ->
        let r = Workloads.Sor_ivy.run rt p ~iters () in
        [
          headline "ivy" r.compute_elapsed r.checksum;
          Printf.sprintf
            "  faults: %d read, %d write; invalidations: %d; %d bytes\n"
            r.read_faults r.write_faults r.invalidations r.transfer_bytes;
        ]
    in
    (* The balancer drives only the Amber programs. *)
    let ins =
      match system with
      | `Amber -> ins
      | `Seq | `Ivy -> { ins with Harness.balance = Balance.Driver.default_cfg }
    in
    Harness.run cfg ins body (List.iter print_string)
  in
  let term =
    Term.(
      const run $ Harness.config $ coalesce_window $ system $ grid_term
      $ iters_arg $ sections $ no_overlap $ skew $ async_flag $ Harness.all)
  in
  Harness.cmd "sor" ~doc:"Run Red/Black SOR (the paper's §6 application)." term

(* --- workqueue ----------------------------------------------------------- *)

let workqueue_cmd =
  let items =
    Arg.(value & opt int 200 & info [ "items" ] ~docv:"N" ~doc:"Work items.")
  in
  let batch =
    Arg.(value & opt int 4 & info [ "batch" ] ~docv:"B" ~doc:"Items per fetch.")
  in
  let workers =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"W" ~doc:"Worker threads per node.")
  in
  let move_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "move-at" ] ~docv:"K"
          ~doc:"Migrate the queue after K items are taken.")
  in
  let run cfg items batch workers move_at ins =
    Harness.run cfg ins
      (fun rt ->
        Workloads.Work_queue.run rt
          {
            Workloads.Work_queue.items;
            work_cpu = 10e-3;
            batch;
            workers_per_node = workers;
            move_queue_at = move_at;
          })
      (fun r ->
        Printf.printf "processed %d items in %.3f virtual s\n" r.processed
          r.elapsed;
        Array.iteri
          (fun node count -> Printf.printf "  node %d: %d items\n" node count)
          r.per_node;
        Printf.printf "queue finished on node %d\n" r.queue_final_node)
  in
  let term =
    Term.(
      const run $ Harness.config $ items $ batch $ workers $ move_at
      $ Harness.with_report Harness.sanitized)
  in
  Harness.cmd "workqueue" ~doc:"Run the distributed work-queue workload." term

(* --- matmul -------------------------------------------------------------- *)

let matmul_cmd =
  let n =
    Arg.(value & opt int 96 & info [ "size" ] ~docv:"N" ~doc:"Matrix dimension.")
  in
  let block =
    Arg.(value & opt int 24 & info [ "block" ] ~docv:"B" ~doc:"Block edge.")
  in
  let no_replicate =
    Arg.(
      value & flag
      & info [ "no-replicate" ]
          ~doc:"Keep A and B on node 0 instead of replicating.")
  in
  let run cfg n block no_replicate ins =
    let mcfg =
      {
        Workloads.Matmul.n;
        block;
        replicate = not no_replicate;
        workers_per_node = cfg.Amber.Config.cpus_per_node;
        flop_cpu = 5e-6;
      }
    in
    let want = Workloads.Matmul.reference_checksum mcfg in
    Harness.run cfg ins
      (fun rt -> Workloads.Matmul.run rt mcfg)
      (fun r ->
        let ok = Float.abs (r.checksum -. want) <= 1e-6 *. want in
        Printf.printf
          "matmul %dx%d (%s): %.3f virtual s, %d remote invocations, %d \
           copies %s\n"
          n n
          (if no_replicate then "no replication" else "replicated inputs")
          r.elapsed r.remote_invocations r.copies
          (if ok then "(correct)" else "(WRONG)"))
  in
  let term =
    Term.(
      const run $ Harness.config $ n $ block $ no_replicate $ Harness.sanitized)
  in
  Harness.cmd "matmul" ~doc:"Run the replicated matrix multiply." term

(* --- tsp ----------------------------------------------------------------- *)

let tsp_cmd =
  let cities =
    Arg.(value & opt int 10 & info [ "cities" ] ~docv:"C" ~doc:"Problem size (3-13).")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"S" ~doc:"Instance seed.")
  in
  let central =
    Arg.(
      value & flag
      & info [ "central" ] ~doc:"One shared pool instead of per-node pools.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ] ~doc:"Verify the result against brute force (slow).")
  in
  let skew =
    Arg.(
      value & flag
      & info [ "skew" ]
          ~doc:
            "Pathological placement: leave the per-node pools and bound \
             caches on node 0 (a load-balancer stress input).")
  in
  let run cfg cities seed central check skew ins =
    let tcfg =
      {
        Workloads.Tsp.cities;
        seed;
        workers_per_node = cfg.Amber.Config.cpus_per_node;
        expand_cpu = 50e-6;
        centralize = central;
        skew;
      }
    in
    Harness.run cfg ins
      (fun rt -> Workloads.Tsp.run rt tcfg)
      (fun r ->
        Printf.printf "tsp %d cities (%s): best tour cost %d in %.3f virtual s\n"
          cities
          (if central then "central pool" else "per-node pools")
          r.best_cost r.elapsed;
        Printf.printf "  tour: %s\n"
          (String.concat " -> "
             (Array.to_list (Array.map string_of_int r.best_tour)));
        Printf.printf
          "  %d expansions, %d pruned, %d steals, %d remote invocations\n"
          r.expansions r.pruned r.steals r.remote_invocations;
        if check then begin
          let want = Workloads.Tsp.brute_force tcfg in
          Printf.printf "  brute force says %d: %s\n" want
            (if want = r.best_cost then "OPTIMAL" else "WRONG")
        end)
  in
  let term =
    Term.(
      const run $ Harness.config $ cities $ seed $ central $ check $ skew
      $ Harness.with_balance Harness.sanitized)
  in
  Harness.cmd "tsp" ~doc:"Run parallel branch-and-bound TSP with work stealing."
    term

(* --- readmostly ----------------------------------------------------------- *)

let readmostly_cmd =
  let objects =
    Arg.(
      value & opt int 4
      & info [ "objects" ] ~docv:"N" ~doc:"Shared objects (mastered on node 0).")
  in
  let readers =
    Arg.(
      value & opt int 2
      & info [ "readers" ] ~docv:"R" ~doc:"Reader threads per node.")
  in
  let reads =
    Arg.(
      value & opt int 40
      & info [ "reads" ] ~docv:"K" ~doc:"Read invocations per reader.")
  in
  let write_every =
    Arg.(
      value & opt int 10
      & info [ "write-every" ] ~docv:"K"
          ~doc:
            "One write round (one write per object) after every K reads per \
             reader; 0 disables writes.")
  in
  let replicate =
    Arg.(
      value & flag
      & info [ "replicate" ]
          ~doc:
            "Install a read replica of every object on every node (and \
             refresh after each write round).")
  in
  let run cfg objects readers reads write_every replicate ins =
    Harness.run cfg ins
      (fun rt ->
        Workloads.Read_mostly.run rt
          {
            Workloads.Read_mostly.objects;
            readers_per_node = readers;
            reads_per_reader = reads;
            write_every;
            replicate;
          })
      (fun r ->
        Printf.printf
          "read-mostly (%s): %d reads, %d writes in %.3f virtual s (checksum \
           %d)\n"
          (if replicate then "replicated" else "no replication")
          r.reads r.writes r.elapsed r.checksum;
        Printf.printf "  replica reads: %d, remote invocations: %d\n"
          r.replica_reads r.remote_invocations;
        let lat = r.read_latency in
        if Sim.Stats.Summary.count lat > 0 then
          Printf.printf "  remote-node read latency: mean %.1f us, p95 %.1f us\n"
            (Sim.Stats.Summary.mean lat *. 1e6)
            (Sim.Stats.Summary.percentile lat 95.0 *. 1e6))
  in
  let term =
    Term.(
      const run $ Harness.config $ objects $ readers $ reads $ write_every
      $ replicate
      $ Harness.with_report Harness.sanitized)
  in
  Harness.cmd "readmostly"
    ~doc:"Run the read-mostly workload (read replicas vs remote invocations)."
    term

(* --- serve --------------------------------------------------------------- *)

let burst_conv =
  (* FACTOR:ON:OFF — on-phase rate multiplier plus mean on/off phase
     lengths in virtual seconds. *)
  let parse s =
    match String.split_on_char ':' s with
    | [ f; on; off ] -> (
      try Ok (float_of_string f, float_of_string on, float_of_string off)
      with _ -> Error (`Msg "burst: expected FACTOR:ON:OFF"))
    | _ -> Error (`Msg "burst: expected FACTOR:ON:OFF")
  in
  let print ppf (f, on, off) = Format.fprintf ppf "%g:%g:%g" f on off in
  Arg.conv (parse, print)

let mix_conv =
  (* read=W,write=W,compute=W (any subset; missing classes get weight 0). *)
  let parse s =
    try
      let mix =
        List.fold_left
          (fun m part ->
            match String.split_on_char '=' (String.trim part) with
            | [ "read"; w ] ->
              { m with Serve.Trafficgen.read = float_of_string w }
            | [ "write"; w ] ->
              { m with Serve.Trafficgen.write = float_of_string w }
            | [ "compute"; w ] ->
              { m with Serve.Trafficgen.compute = float_of_string w }
            | _ -> raise Exit)
          { Serve.Trafficgen.read = 0.0; write = 0.0; compute = 0.0 }
          (String.split_on_char ',' s)
      in
      Ok mix
    with _ -> Error (`Msg "classes: expected read=W,write=W,compute=W")
  in
  let print ppf (m : Serve.Trafficgen.mix) =
    Format.fprintf ppf "read=%g,write=%g,compute=%g" m.Serve.Trafficgen.read
      m.Serve.Trafficgen.write m.Serve.Trafficgen.compute
  in
  Arg.conv (parse, print)

(* The flags serve shares with watch. *)

let rps_arg doc =
  Arg.(value & opt float 400.0 & info [ "rps" ] ~docv:"RATE" ~doc)

let duration_arg =
  Arg.(
    value & opt float 0.5
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"Traffic window, virtual seconds.")

let serve_workers_arg =
  Arg.(
    value & opt int 2
    & info [ "workers" ] ~docv:"N" ~doc:"Service worker threads per node.")

(* Run a serve scenario and print its summary (serve and watch). *)
let serve_run (cfg : Amber.Config.t) ins (scfg : Serve.cfg) =
  Harness.run cfg ins
    (fun rt -> Serve.run rt scfg)
    (fun r ->
      Printf.printf
        "serve (%s, %d nodes): issued %d, completed %d, rejected %d, failed \
         %d in %.3f virtual s\n"
        (match scfg.arrival with
        | Poisson r -> Printf.sprintf "poisson %.0f rps" r
        | Bursty b -> Printf.sprintf "bursty %.0fx%.0f rps" b.rate b.factor)
        cfg.nodes r.issued r.completed r.rejected r.failed r.elapsed;
      Printf.printf "  goodput %.1f rps, reject %.1f%%\n" r.goodput_rps
        (100.0 *. r.reject_frac);
      let lat = r.latency in
      if Sim.Stats.Summary.count lat > 0 then
        Printf.printf
          "  admitted latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms\n"
          (Sim.Stats.Summary.percentile lat 50.0 *. 1e3)
          (Sim.Stats.Summary.percentile lat 95.0 *. 1e3)
          (Sim.Stats.Summary.percentile lat 99.0 *. 1e3);
      List.iter
        (fun (st : Serve.class_stats) ->
          Printf.printf "  %-7s issued %d, ok %d, rej %d, fail %d\n"
            (Serve.Trafficgen.cls_name st.cls)
            st.issued st.completed st.rejected st.failed)
        r.per_class)

let serve_cmd =
  let rps =
    rps_arg
      "Mean arrival rate, requests per virtual second (off-phase rate when \
       $(b,--burst) is given)."
  in
  let burst =
    Arg.(
      value
      & opt (some burst_conv) None
      & info [ "burst" ] ~docv:"FACTOR:ON:OFF"
          ~doc:
            "Bursty (Markov-modulated Poisson) arrivals: multiply the rate \
             by FACTOR during exponential on-phases of mean length ON \
             seconds, separated by off-phases of mean length OFF.")
  in
  let zipf =
    Arg.(
      value & opt float 1.0
      & info [ "zipf" ] ~docv:"S"
          ~doc:"Zipf exponent of the key popularity skew (0 = uniform).")
  in
  let objects =
    Arg.(
      value & opt int 64
      & info [ "objects" ] ~docv:"N"
          ~doc:"Service objects; key $(i,k) homes on node $(i,k) mod nodes.")
  in
  let classes =
    Arg.(
      value
      & opt mix_conv Serve.Trafficgen.default_mix
      & info [ "classes" ] ~docv:"MIX"
          ~doc:
            "Request class mix as read=W,write=W,compute=W relative \
             weights (default read=0.7,write=0.2,compute=0.1).")
  in
  let admission =
    Arg.(
      value & flag
      & info [ "admission" ]
          ~doc:
            "Enable per-class admission control (token bucket + queue-depth \
             cutoff) on every node; overload is shed as typed rejections \
             instead of queueing without bound.")
  in
  let admit_rate =
    Arg.(
      value & opt float 0.0
      & info [ "admit-rate" ] ~docv:"RATE"
          ~doc:
            "Aggregate admission token rate per node (req/s), split across \
             classes by mix weight; 0 derives it from the node's nominal \
             service capacity.")
  in
  let admit_burst =
    Arg.(
      value & opt float 4.0
      & info [ "admit-burst" ] ~docv:"TOKENS"
          ~doc:"Per-class token bucket capacity.")
  in
  let cutoff =
    Arg.(
      value & opt int 8
      & info [ "cutoff" ] ~docv:"N"
          ~doc:"Per-node admitted-but-unfinished request cutoff.")
  in
  let replicate =
    Arg.(
      value & flag
      & info [ "replicate" ]
          ~doc:"Replicate every service object on every node.")
  in
  let run cfg rps burst zipf objects duration classes workers admission
      admit_rate admit_burst cutoff replicate ins =
    let arrival =
      match burst with
      | None -> Serve.Trafficgen.Poisson rps
      | Some (factor, on_mean, off_mean) ->
        Serve.Trafficgen.Bursty { rate = rps; factor; on_mean; off_mean }
    in
    serve_run cfg ins
      {
        Serve.default_cfg with
        arrival;
        duration;
        keys = objects;
        skew = zipf;
        mix = classes;
        workers_per_node = workers;
        replicate;
        admission =
          (if admission then Some { Serve.admit_rate; admit_burst; cutoff }
           else None);
      }
  in
  let term =
    Term.(
      const run $ Harness.config $ rps $ burst $ zipf $ objects $ duration_arg
      $ classes $ serve_workers_arg $ admission $ admit_rate $ admit_burst
      $ cutoff $ replicate $ Harness.all)
  in
  Harness.cmd "serve"
    ~doc:
      "Serve open-loop traffic (Poisson or bursty, Zipf-skewed, mixed \
       read/write/compute) with per-class SLO reporting and optional \
       admission control."
    term

(* --- watch (one-command telemetry smoke over serve) ----------------------- *)

let watch_cmd =
  let rps =
    rps_arg
      "Mean arrival rate, requests per virtual second (push it past capacity \
       to watch the SLO monitors trip)."
  in
  let run cfg rps duration workers (ins : Harness.instruments) =
    (* Telemetry is the point of this subcommand: force the tick on and,
       with no explicit rules, watch the canonical serving objective. *)
    let default_rules =
      Result.to_list (Watch.Slo.parse "serve.latency_ms.p99<=60")
    in
    let w = ins.watch in
    let watch =
      {
        w with
        Harness.w_on = true;
        w_slo = (if w.w_slo = [] then default_rules else w.w_slo);
      }
    in
    serve_run cfg { ins with watch }
      {
        Serve.default_cfg with
        arrival = Serve.Trafficgen.Poisson rps;
        duration;
        workers_per_node = workers;
        admission =
          Some { Serve.admit_rate = 0.0; admit_burst = 4.0; cutoff = 8 };
      }
  in
  let term =
    Term.(
      const run $ Harness.config $ rps $ duration_arg $ serve_workers_arg
      $ Harness.all)
  in
  Harness.cmd "watch"
    ~doc:
      "Run an admission-controlled serve scenario under continuous \
       telemetry: sampled time series, a default p99 latency SLO burn-rate \
       monitor (exit 4 when it fires), and optional series exports / flight \
       recorder."
    term

(* --- trace --------------------------------------------------------------- *)

let trace_cmd =
  let limit =
    Arg.(
      value & opt int 60
      & info [ "limit" ] ~docv:"N" ~doc:"Maximum records to print.")
  in
  let category =
    Arg.(
      value
      & opt (some string) None
      & info [ "category" ] ~docv:"CAT"
          ~doc:
            "Only records of this category (create, migrate, move, net, \
             sched).")
  in
  let variant =
    Arg.(
      value
      & opt (enum [ ("racy", `Racy); ("clean", `Clean) ]) `Clean
      & info [ "variant" ] ~docv:"V"
          ~doc:
            "Which scenario to trace: $(b,clean) (lock-ordered increments, \
             lints clean) or $(b,racy) (the same increments with the lock \
             removed, so $(b,--lint) must flag the Read/Write races and \
             exit 3).")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the selected records as JSON Lines on stdout (one object \
             per record) instead of the human-readable listing.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Also collect causal spans during the run and write them to \
             $(docv) as Chrome trace-event JSON (loadable in Perfetto).")
  in
  let run cfg limit category json out variant ins =
    let body rt =
      Sim.Trace.set_enabled (Amber.Runtime.trace rt) true;
      if out <> None then Sim.Span.set_enabled (Amber.Runtime.spans rt) true;
      let counter = Amber.Api.create rt ~name:"counter" (ref 0) in
      Amber.Api.move_to rt counter ~dest:(min 1 (cfg.Amber.Config.nodes - 1));
      let lock = Amber.Sync.Lock.create rt () in
      (* The racy variant runs the same two-step increment without the
         lock: the Read and Write steps of different workers carry no
         happens-before edge, which offline lint must flag. *)
      let increment =
        match variant with
        | `Clean ->
          fun () ->
            Amber.Sync.Lock.with_lock rt lock (fun () ->
                Amber.Api.invoke rt counter (fun c -> incr c))
        | `Racy ->
          fun () ->
            let v =
              Amber.Invoke.invoke rt ~mode:Amber.San_hooks.Read counter
                (fun c -> !c)
            in
            Sim.Fiber.consume 200e-6;
            Amber.Invoke.invoke rt ~mode:Amber.San_hooks.Write counter
              (fun c -> c := v + 1)
      in
      let ts =
        List.init 3 (fun i ->
            Amber.Api.start rt ~name:(Printf.sprintf "w%d" i) (fun () ->
                for _ = 1 to 3 do
                  increment ()
                done))
      in
      List.iter (fun t -> Amber.Api.join rt t) ts;
      rt
    in
    let print rt =
      let trace = Amber.Runtime.trace rt in
      let records =
        match category with
        | None -> Sim.Trace.records trace
        | Some c -> Sim.Trace.by_category trace c
      in
      let shown = List.filteri (fun i _ -> i < limit) records in
      if json then
        List.iter
          (fun r -> print_endline (Scope.Export.trace_record_json r))
          shown
      else begin
        Printf.printf "protocol trace (%d records, showing up to %d):\n"
          (List.length records) limit;
        List.iter (Format.printf "%a@." Sim.Trace.pp_record) shown
      end;
      match out with
      | None -> ()
      | Some path ->
        let spans = Sim.Span.spans (Amber.Runtime.spans rt) in
        Harness.write_file path (Scope.Export.chrome_json spans);
        if not json then
          Printf.printf "wrote %s (%d spans)\n" path (List.length spans)
    in
    Harness.run cfg ins body print
  in
  let lint =
    Term.(const (fun lint -> { Harness.off with lint }) $ Harness.lint_arg)
  in
  let term =
    Term.(
      const run $ Harness.config $ limit $ category $ json_flag $ trace_out
      $ variant $ lint)
  in
  Harness.cmd "trace"
    ~doc:"Run a small scenario with protocol tracing enabled and dump it." term

(* --- profile (sor under the span profiler) -------------------------------- *)

let profile_cmd =
  let workload =
    Arg.(
      value
      & pos 0 (enum [ ("sor", `Sor) ]) `Sor
      & info [] ~docv:"WORKLOAD" ~doc:"Workload to profile (currently $(b,sor)).")
  in
  let jsonl_flag =
    Arg.(
      value & flag
      & info [ "jsonl" ]
          ~doc:"Also dump every span as one JSON object per line on stdout.")
  in
  let run (cfg : Amber.Config.t) `Sor p iters ins =
    Harness.run cfg ins
      (fun rt -> Workloads.Sor_amber.run rt p ~iters ())
      (fun r ->
        Printf.printf "amber %dNx%dP: compute %.3f virtual s, checksum %.6g\n"
          cfg.nodes cfg.cpus_per_node r.compute_elapsed r.checksum)
  in
  let profiled =
    Term.(
      const (fun out jsonl -> { Harness.off with profile = true; out; jsonl })
      $ Harness.out_arg $ jsonl_flag)
  in
  let term =
    Term.(
      const run $ Harness.config $ workload $ grid_term $ iters_arg $ profiled)
  in
  Harness.cmd "profile"
    ~doc:
      "Run a workload under the span profiler: per-operation latency \
       summaries, per-node busy/blocked attribution and a critical-path \
       decomposition of the main thread's elapsed time."
    term

(* --- fixture ------------------------------------------------------------- *)

let fixture_cmd =
  let variant =
    Arg.(
      value
      & opt (enum [ ("racy", `Racy); ("clean", `Clean) ]) `Racy
      & info [ "variant" ] ~docv:"V"
          ~doc:
            "Which counter fixture to run: $(b,racy) (unsynchronized \
             read-modify-write, AmberSan must flag it) or $(b,clean) (the \
             same protocol under a lock).")
  in
  let threads =
    Arg.(
      value & opt int 4
      & info [ "threads" ] ~docv:"T" ~doc:"Incrementing threads.")
  in
  let increments =
    Arg.(
      value & opt int 25
      & info [ "increments" ] ~docv:"K" ~doc:"Increments per thread.")
  in
  let run cfg variant threads increments ins =
    Harness.run cfg ins
      (fun rt ->
        match variant with
        | `Racy -> Workloads.Fixtures.racy_counter rt ~threads ~increments
        | `Clean -> Workloads.Fixtures.clean_counter rt ~threads ~increments)
      (fun r ->
        Printf.printf "counter: %d of %d expected increments%s\n" r.final
          r.expected
          (if r.final = r.expected then "" else " (updates lost)"))
  in
  let term =
    Term.(
      const run $ Harness.config $ variant $ threads $ increments
      $ Harness.sanitized)
  in
  Harness.cmd "fixture"
    ~doc:"Run a seeded sanitizer fixture (racy or clean shared counter)." term

(* --- check (schedule-space model checking) -------------------------------- *)

let check_cmd =
  let fixture_arg =
    let names =
      "all" :: List.map Analysis.Modelcheck.fixture_name Analysis.Modelcheck.fixtures
    in
    Arg.(
      value
      & pos 0 string "all"
      & info [] ~docv:"FIXTURE"
          ~doc:
            (Printf.sprintf
               "Protocol fixture to check: %s.  $(b,all) runs every fixture."
               (String.concat ", " names)))
  in
  let max_schedules =
    Arg.(
      value & opt int 4000
      & info [ "max-schedules" ] ~docv:"N"
          ~doc:"Stop after exploring N schedules (complete plus truncated).")
  in
  let max_depth =
    Arg.(
      value & opt int 3000
      & info [ "max-depth" ] ~docv:"D"
          ~doc:
            "Abandon any single execution after D decision points (bounds \
             retransmission-timer storms).")
  in
  let fault_budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "fault-budget" ] ~docv:"K"
          ~doc:
            "Per-execution budget of non-deliver fault choices (drop or \
             duplicate); default is the fixture's own.")
  in
  let schedule_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule-out" ] ~docv:"FILE"
          ~doc:"Write the counterexample schedule (if any) to $(docv).")
  in
  let schedule_in =
    Arg.(
      value
      & opt (some string) None
      & info [ "schedule-in" ] ~docv:"FILE"
          ~doc:
            "Skip exploration: replay the schedule in $(docv) against the \
             (single) fixture and report that one execution's verdict.")
  in
  let mutate =
    (* deliberately undocumented: re-introduces known-fixed bugs so CI can
       assert the checker still finds them *)
    Arg.(
      value
      & opt (some string) None
      & info [ "mutate" ] ~docv:"BUG" ~docs:"HIDDEN OPTIONS")
  in
  let random =
    Arg.(
      value
      & opt (some int) None
      & info [ "random" ] ~docv:"SEED"
          ~doc:
            "Random-walk mode: instead of systematic DFS with partial-order \
             reduction, draw every decision uniformly at random \
             (deterministically, from $(docv)).  Samples deep reorderings \
             that DFS only reaches one race reversal at a time; \
             counterexamples stay replayable.")
  in
  (* Resolve the fixtures, the mutation and the schedule to replay while
     the command line is parsed, so a bad name or file is a usage error. *)
  let plan fixture mutate schedule_in =
    let ( let* ) = Result.bind in
    let lookup what find known name =
      match find name with
      | Some x -> Ok x
      | None ->
        Error
          (Printf.sprintf "unknown %s %S (known: %s)" what name
             (String.concat ", " known))
    in
    let* mutate =
      match mutate with
      | None -> Ok Fun.id
      | Some m ->
        Result.map Analysis.Modelcheck.apply_mutation
          (lookup "mutation" Analysis.Modelcheck.mutation_of_string
             Analysis.Modelcheck.mutation_names m)
    in
    let* fixtures =
      match fixture with
      | "all" -> Ok Analysis.Modelcheck.fixtures
      | name ->
        Result.map
          (fun f -> [ f ])
          (lookup "fixture" Analysis.Modelcheck.find_fixture
             (List.map Analysis.Modelcheck.fixture_name
                Analysis.Modelcheck.fixtures)
             name)
    in
    let fixtures = List.map mutate fixtures in
    match (schedule_in, fixtures) with
    | None, _ -> Ok (fixtures, None)
    | Some path, [ fx ] ->
      let* sched = Analysis.Schedule.load path in
      Ok (fixtures, Some (fx, sched))
    | Some _, _ -> Error "--schedule-in needs a single named fixture"
  in
  let run (fixtures, replay) max_schedules max_depth fault_budget schedule_out
      random =
    let print_violations = List.iter (Printf.printf "  VIOLATION: %s\n") in
    match replay with
    | Some (fx, sched) -> (
      Printf.printf "replaying %d recorded decisions against %s:\n"
        (List.length sched)
        (Analysis.Modelcheck.fixture_name fx);
      match Analysis.Modelcheck.replay ~max_depth fx sched with
      | [] ->
        print_endline "replay: no violation";
        Cmd.Exit.ok
      | violations ->
        print_violations violations;
        Harness.findings)
    | None ->
      let status = ref Cmd.Exit.ok in
      List.iter
        (fun fx ->
          let name = Analysis.Modelcheck.fixture_name fx in
          Printf.printf "checking %s (%s)...\n%!" name
            (Analysis.Modelcheck.fixture_descr fx);
          let o =
            match random with
            | Some seed ->
              Analysis.Modelcheck.fuzz ~max_schedules ~max_depth ?fault_budget
                ~seed fx
            | None ->
              Analysis.Modelcheck.explore ~max_schedules ~max_depth
                ?fault_budget fx
          in
          List.iter
            (fun l -> print_endline ("  " ^ l))
            (Analysis.Modelcheck.stats_lines o.Analysis.Modelcheck.stats);
          match o.Analysis.Modelcheck.counterexample with
          | None -> Printf.printf "  %s: no violation found\n" name
          | Some (sched, violations) ->
            status := Harness.findings;
            print_violations violations;
            Printf.printf "  counterexample (%d decisions):\n"
              (List.length sched);
            Format.printf "%a" Analysis.Schedule.pp sched;
            (match schedule_out with
            | None -> ()
            | Some path ->
              Analysis.Schedule.save
                ~comments:
                  [
                    Printf.sprintf "fixture: %s" name;
                    Printf.sprintf "violations: %s"
                      (String.concat " | " violations);
                  ]
                path sched;
              Printf.printf
                "  schedule written to %s (replay with: amber_sim check %s \
                 --schedule-in %s)\n"
                path name path))
        fixtures;
      !status
  in
  let term =
    Term.(
      const run
      $ cli_parse_result' (const plan $ fixture_arg $ mutate $ schedule_in)
      $ max_schedules $ max_depth $ fault_budget $ schedule_out $ random)
  in
  Harness.cmd "check"
    ~doc:
      "Model-check a protocol fixture: systematically explore the schedule \
       space (event, fiber and fault choices) with partial-order reduction, \
       auditing every execution with AmberSan plus terminal invariants.  \
       Exit 3 with a replayable counterexample schedule on any violation."
    term

let () =
  let doc = "Amber: parallel programming on a network of multiprocessors" in
  let info = Cmd.info "amber_sim" ~version:"1.0" ~doc ~exits:Harness.exits in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ sor_cmd; workqueue_cmd; matmul_cmd; tsp_cmd; readmostly_cmd;
            serve_cmd; watch_cmd; trace_cmd; profile_cmd; fixture_cmd;
            check_cmd ]))
