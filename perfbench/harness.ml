(* Host-cost benchmark harness for the Amber simulator.

   Each invocation runs one workload once, in a fresh process, and prints
   one JSON object as the last line of standard output.  [run.py] drives
   it and aggregates; BENCHMARK.json at the repository root lists the
   workloads and metrics.

     harness.exe run WORKLOAD SEED VERIFY   timed run, tracing off, then
                                            the calibration workload
     harness.exe trace WORKLOAD SEED OUT    traced run, Chrome trace to OUT
     harness.exe profile WORKLOAD SEED      timed run with Scope.Profile on
     harness.exe watch WORKLOAD SEED        timed run with Watch on
     harness.exe units DEPTH                isolated unit costs (Bechamel)

   Timed runs call [Amber.Cluster.run] itself.  The traced run, which has
   to step the engine one event at a time, mirrors it: [Runtime.create],
   [Athread.start_on] main, [Hw.Machine.on_finish], the engine loop, then
   [Runtime.check_failures], with the same deadlock and failure outcomes.
   Every number comes from public functions, counters and gauges; nothing
   here reaches inside the libraries. *)

module A = Amber
module W = Workloads
module MC = Analysis.Modelcheck

let now_ns () = Monotonic_clock.now ()
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Null
  | Obj of (string * json) list

let rec json_to_string = function
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ | Null -> "null"
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Str s -> Scope.Export.jstr s
  | Obj fields ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Scope.Export.jstr k ^ ":" ^ json_to_string v)
           fields)
    ^ "}"

let nums l = Obj (List.map (fun (k, v) -> (k, Num v)) l)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* What a simulated run produced.  [failure] is [None] when the
   correctness gate passed; [facts] are exact simulated outputs (floats
   in %h) that feed the digest; [sim] are the simulated end-to-end
   outputs; [layer] are per-layer counts only the workload knows. *)
type outcome = {
  failure : string option;
  facts : (string * string) list;
  sim : (string * float) list;
  layer : (string * float) list;
}

(* [body] runs as the program's main Amber thread.  It returns the
   post-run evaluation, which runs after the engine drains and outside
   every timed region ([verify] gates the costlier reference checks). *)
type spec = {
  cfg : A.Config.t;
  body : A.Runtime.t -> verify:bool -> outcome;
}

let hex = Printf.sprintf "%h"

(* Fig-3 grid (61x421) at 4Nx4P with overlap on. *)
let sor_rows = 61
let sor_cols = 421
let sor_iters = 500

(* The seed picks the plate's boundary temperatures: the checksum
   depends on them, the amount of work does not. *)
let sor_params seed =
  let st = Random.State.make [| seed |] in
  let temp () = Random.State.float st 100.0 in
  let p =
    W.Sor_core.with_size W.Sor_core.default ~rows:sor_rows ~cols:sor_cols
  in
  {
    p with
    W.Sor_core.top = 50.0 +. temp ();
    bottom = temp ();
    left = temp ();
    right = temp ();
  }

let sor_spec seed =
  let p = sor_params seed in
  {
    cfg = A.Config.make ~nodes:4 ~cpus:4 ~seed:(Int64.of_int seed) ();
    body =
      (fun rt ->
        let c =
          { (W.Sor_amber.default_cfg rt) with W.Sor_amber.overlap = true }
        in
        let r = W.Sor_amber.run rt p ~cfg:c ~iters:sor_iters () in
        fun ~verify ->
          let t0 = now_ns () in
          let want =
            if verify then
              Some
                (W.Sor_core.Full_grid.checksum
                   (W.Sor_core.reference p ~iters:sor_iters))
            else None
          in
          let reference_s = if verify then secs_since t0 else 0.0 in
          let failure =
            match want with
            | Some w when w <> r.W.Sor_amber.checksum ->
              Some
                (Printf.sprintf "SOR checksum %h differs from reference %h"
                   r.W.Sor_amber.checksum w)
            | Some _ | None -> None
          in
          {
            failure;
            facts =
              [
                ("sor.iterations", string_of_int r.W.Sor_amber.iterations);
                ("sor.checksum", hex r.W.Sor_amber.checksum);
                ("sor.compute_elapsed", hex r.W.Sor_amber.compute_elapsed);
                ("sor.total_elapsed", hex r.W.Sor_amber.total_elapsed);
              ];
            sim = [ ("sim_elapsed_s", r.W.Sor_amber.compute_elapsed) ];
            layer = [ ("workloads.sor.reference_s", reference_s) ];
          });
  }

let percentile_or_zero s p =
  if Sim.Stats.Summary.count s = 0 then 0.0
  else Sim.Stats.Summary.percentile s p

(* Gate, read once the engine has drained: every issued request is
   resolved exactly once in its class, and the classes add up to the
   total [Serve.run] returned (so the overall account closes too).
   [Serve.run] builds its totals as it returns, where they close by
   construction; its per-class records stay live, so a request counted
   failed at the drain deadline and completed afterwards shows here as
   an extra resolution, reported as [serve.late_resolutions].  The
   reported totals and goodput are the ones [Serve.run] returned; the
   latency summaries are read here, as [amber_sim serve] prints them. *)
let serve_outcome (r : Serve.result) =
  let module S = Serve in
  let resolved (c : S.class_stats) =
    c.S.completed + c.S.rejected + c.S.failed
  in
  let sum f = List.fold_left (fun a c -> a + f c) 0 r.S.per_class in
  let late = sum resolved - r.S.issued in
  let failure =
    if sum (fun c -> c.S.issued) <> r.S.issued then
      Some "serve: per-class issued does not sum to the total"
    else
      List.find_map
        (fun (c : S.class_stats) ->
          if resolved c = c.S.issued then None
          else
            Some
              (Printf.sprintf
                 "serve: class %s issued %d <> completed %d + rejected %d + \
                  failed %d once the engine drained"
                 (S.Trafficgen.cls_name c.S.cls)
                 c.S.issued c.S.completed c.S.rejected c.S.failed))
        r.S.per_class
  in
  let lat_facts prefix s =
    let n = Sim.Stats.Summary.count s in
    (prefix ^ ".n", string_of_int n)
    :: List.map
         (fun p ->
           (Printf.sprintf "%s.p%g" prefix p, hex (percentile_or_zero s p)))
         [ 50.0; 95.0; 99.0 ]
  in
  let class_facts (c : S.class_stats) =
    let k = "serve." ^ S.Trafficgen.cls_name c.S.cls in
    [
      (k ^ ".issued", string_of_int c.S.issued);
      (k ^ ".completed", string_of_int c.S.completed);
      (k ^ ".rejected", string_of_int c.S.rejected);
      (k ^ ".failed", string_of_int c.S.failed);
    ]
    @ lat_facts (k ^ ".latency") c.S.latency
  in
  let issued = float_of_int r.S.issued in
  {
    failure;
    facts =
      [
        ("serve.issued", string_of_int r.S.issued);
        ("serve.completed", string_of_int r.S.completed);
        ("serve.rejected", string_of_int r.S.rejected);
        ("serve.failed", string_of_int r.S.failed);
        ("serve.elapsed", hex r.S.elapsed);
        ("serve.goodput_rps", hex r.S.goodput_rps);
        ("serve.late_resolutions", string_of_int late);
      ]
      @ lat_facts "serve.latency" r.S.latency
      @ List.concat_map class_facts r.S.per_class;
    sim =
      [
        ("sim_elapsed_s", r.S.elapsed);
        ("sim_p50_ms", 1e3 *. percentile_or_zero r.S.latency 50.0);
        ("sim_p99_ms", 1e3 *. percentile_or_zero r.S.latency 99.0);
        ( "sim_latency_samples",
          float_of_int (Sim.Stats.Summary.count r.S.latency) );
        ("sim_goodput_rps", r.S.goodput_rps);
        ( "sim_fail_frac",
          if r.S.issued = 0 then 0.0
          else float_of_int (r.S.rejected + r.S.failed) /. issued );
      ];
    layer =
      [
        ("serve.issued", issued);
        ("serve.completed", float_of_int r.S.completed);
        ("serve.rejected", float_of_int r.S.rejected);
        ("serve.failed", float_of_int r.S.failed);
        ("serve.late_resolutions", float_of_int late);
      ];
  }

(* Open-loop Poisson serving, default Zipf/mix, no admission control.
   [drain_grace] defaults to [Serve.default_cfg]'s. *)
let serve_spec ?(drain_grace = Serve.default_cfg.Serve.drain_grace) ~nodes ~rps
    ~duration seed =
  {
    cfg = A.Config.make ~nodes ~cpus:4 ~seed:(Int64.of_int seed) ();
    body =
      (fun rt ->
        let r =
          Serve.run rt
            {
              Serve.default_cfg with
              Serve.arrival = Serve.Trafficgen.Poisson rps;
              duration;
              drain_grace;
            }
        in
        fun ~verify:_ -> serve_outcome r);
  }

(* AmberCheck DFS over every fixture, each capped at [check_cap]
   schedules.  Seedless. *)
let check_cap = 150

type workload = Sim_workload of spec | Check

let workload name seed =
  match name with
  | "sor-4n4p" -> Sim_workload (sor_spec seed)
  | "serve-4n" ->
    Sim_workload (serve_spec ~nodes:4 ~rps:400.0 ~duration:100.0 seed)
  | "serve-64n-sat" ->
    (* The 20 s window leaves about 120 virtual s of queued requests
       behind it (the drain ends near 143 s); a 600 s grace lets every
       one resolve before [Serve.run] returns.  At the default 2 s grace,
       [Serve.run] counts the requests still queued at the deadline as
       failed, they complete afterwards and are counted again in the
       per-class records, and [serve_outcome]'s gate fails.  That fault is
       in [Serve.run]; this workload does not exercise it. *)
    Sim_workload
      (serve_spec ~nodes:64 ~rps:6400.0 ~duration:20.0 ~drain_grace:600.0 seed)
  | "check" -> Check
  | w -> failwith ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* The traced run's copy of Cluster.run's set-up and outcome           *)
(* ------------------------------------------------------------------ *)

type booted = {
  rt : A.Runtime.t;
  main : (verify:bool -> outcome) A.Athread.t;
  finished_at : float option ref;
}

let boot spec =
  let rt = A.Runtime.create spec.cfg in
  let finished_at = ref None in
  let main =
    A.Athread.start_on rt ~node:0 ~name:"main" (fun () -> spec.body rt)
  in
  Hw.Machine.on_finish (A.Athread.tcb main) (fun _ ->
      finished_at := Some (A.Runtime.now rt));
  { rt; main; finished_at }

let conclude b =
  A.Runtime.check_failures b.rt;
  match (Hw.Machine.state (A.Athread.tcb b.main), !(b.finished_at)) with
  | Hw.Machine.Finished (Sim.Fiber.Failed e), _ -> raise e
  | Hw.Machine.Finished Sim.Fiber.Completed, Some _ ->
    A.Athread.result_exn b.main
  | ( ( Hw.Machine.Finished Sim.Fiber.Completed | Hw.Machine.Ready
      | Hw.Machine.Running _ | Hw.Machine.Blocked ),
      _ ) ->
    raise A.Cluster.Deadlock

let machines rt = Array.init (A.Runtime.nodes rt) (A.Runtime.machine rt)
let sum_over a f = Array.fold_left (fun acc m -> acc + f m) 0 a

(* Every public counter and virtual-time output of the cluster, exact.
   The record pattern names every field, so a counter added to the
   runtime does not compile here until it joins the digest. *)
let cluster_facts rt =
  let c = A.Runtime.counters rt in
  let {
    A.Runtime.local_invocations;
    remote_invocations;
    thread_migrations;
    migration_bytes;
    object_moves;
    object_copies;
    move_bytes;
    locates;
    forward_hops;
    home_fallbacks;
    broadcast_locates;
    objects_created;
    threads_started;
    replica_installs;
    replica_reads;
    replica_invalidations;
    gossip_rounds;
    steal_requests;
    threads_stolen;
    balance_moves;
    balance_replicas;
    async_invocations;
    future_notifies;
    node_crashes;
    node_restarts;
    recovery_promotions;
    objects_lost;
    crash_chain_repairs;
  } =
    c
  in
  let ints =
    [
      ("local_invocations", local_invocations);
      ("remote_invocations", remote_invocations);
      ("thread_migrations", thread_migrations);
      ("migration_bytes", migration_bytes);
      ("object_moves", object_moves);
      ("object_copies", object_copies);
      ("move_bytes", move_bytes);
      ("locates", locates);
      ("forward_hops", forward_hops);
      ("home_fallbacks", home_fallbacks);
      ("broadcast_locates", broadcast_locates);
      ("objects_created", objects_created);
      ("threads_started", threads_started);
      ("replica_installs", replica_installs);
      ("replica_reads", replica_reads);
      ("replica_invalidations", replica_invalidations);
      ("gossip_rounds", gossip_rounds);
      ("steal_requests", steal_requests);
      ("threads_stolen", threads_stolen);
      ("balance_moves", balance_moves);
      ("balance_replicas", balance_replicas);
      ("async_invocations", async_invocations);
      ("future_notifies", future_notifies);
      ("node_crashes", node_crashes);
      ("node_restarts", node_restarts);
      ("recovery_promotions", recovery_promotions);
      ("objects_lost", objects_lost);
      ("crash_chain_repairs", crash_chain_repairs);
    ]
  in
  let eng = A.Runtime.engine rt in
  let ether = A.Runtime.ether rt in
  let rpc = A.Runtime.rpc rt in
  let ms = machines rt in
  let per_node name f =
    Array.to_list
      (Array.mapi (fun i m -> (Printf.sprintf "%s.%d" name i, f m)) ms)
  in
  let summary name s =
    let n = Sim.Stats.Summary.count s in
    (name ^ ".n", string_of_int n)
    :: (if n = 0 then []
        else
          [
            (name ^ ".p50", hex (Sim.Stats.Summary.percentile s 50.0));
            (name ^ ".p99", hex (Sim.Stats.Summary.percentile s 99.0));
            (name ^ ".total", hex (Sim.Stats.Summary.total s));
          ])
  in
  List.map (fun (k, v) -> ("runtime." ^ k, string_of_int v)) ints
  @ [
      ("engine.events", string_of_int (Sim.Engine.events_executed eng));
      ("engine.now", hex (Sim.Engine.now eng));
      ("ether.packets", string_of_int (Hw.Ethernet.packets_sent ether));
      ("ether.bytes", string_of_int (Hw.Ethernet.bytes_sent ether));
      ("ether.queueing", hex (Hw.Ethernet.total_queueing ether));
      ("ether.busy_until", hex (Hw.Ethernet.busy_until ether));
      ("ether.collisions", string_of_int (Hw.Ethernet.collisions ether));
      ("rpc.calls", string_of_int (Topaz.Rpc.calls_made rpc));
      ("rpc.posts", string_of_int (Topaz.Rpc.posts_made rpc));
      ("rpc.rejected", string_of_int (Topaz.Rpc.posts_rejected rpc));
      ("rpc.peer_deaths", string_of_int (Topaz.Rpc.peer_deaths rpc));
    ]
  @ per_node "machine.busy" (fun m -> hex (Hw.Machine.total_busy_time m))
  @ per_node "machine.dispatches" (fun m ->
        string_of_int (Hw.Machine.dispatch_count m))
  @ per_node "machine.preemptions" (fun m ->
        string_of_int (Hw.Machine.preemption_count m))
  @ summary "runtime.remote_invoke_latency" (A.Runtime.remote_invoke_latency rt)
  @ summary "runtime.move_latency" (A.Runtime.move_latency rt)

(* Per-layer counts read from the public counters after a run. *)
let cluster_layer rt =
  let c = A.Runtime.counters rt in
  let eng = A.Runtime.engine rt in
  let ether = A.Runtime.ether rt in
  let rpc = A.Runtime.rpc rt in
  let ms = machines rt in
  let f = float_of_int in
  let cpus = sum_over ms Hw.Machine.cpu_count in
  let busy =
    Array.fold_left (fun a m -> a +. Hw.Machine.total_busy_time m) 0.0 ms
  in
  let lat = A.Runtime.remote_invoke_latency rt in
  [
    ("sim.engine.events", f (Sim.Engine.events_executed eng));
    ("hw.machine.dispatches", f (sum_over ms Hw.Machine.dispatch_count));
    ("hw.machine.preemptions", f (sum_over ms Hw.Machine.preemption_count));
    ("hw.machine.cpu_busy_frac", busy /. (f cpus *. Sim.Engine.now eng));
    ("hw.ethernet.packets", f (Hw.Ethernet.packets_sent ether));
    ("hw.ethernet.bytes", f (Hw.Ethernet.bytes_sent ether));
    ("hw.ethernet.queueing_s", Hw.Ethernet.total_queueing ether);
    ("topaz.rpc.calls", f (Topaz.Rpc.calls_made rpc));
    ("topaz.rpc.posts", f (Topaz.Rpc.posts_made rpc));
    ("topaz.rpc.rejected", f (Topaz.Rpc.posts_rejected rpc));
    ("amber.runtime.local_invocations", f c.A.Runtime.local_invocations);
    ("amber.runtime.remote_invocations", f c.A.Runtime.remote_invocations);
    ("amber.runtime.thread_migrations", f c.A.Runtime.thread_migrations);
    ("amber.runtime.forward_hops", f c.A.Runtime.forward_hops);
    ("amber.runtime.remote_invoke_p99_ms", 1e3 *. percentile_or_zero lat 99.0);
  ]

let digest facts =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ v) facts)))

(* ------------------------------------------------------------------ *)
(* AmberCheck                                                          *)
(* ------------------------------------------------------------------ *)

let check_run () =
  List.map
    (fun fx ->
      let t0 = now_ns () in
      let o = MC.explore ~max_schedules:check_cap fx in
      (o, secs_since t0))
    MC.fixtures

let check_outcome runs =
  let failure =
    List.find_map
      (fun ((o : MC.outcome), _) ->
        match o.MC.counterexample with
        | Some _ -> Some ("check: counterexample in " ^ o.MC.fixture)
        | None when o.MC.stats.MC.schedules <> check_cap ->
          Some
            (Printf.sprintf "check: %s explored %d schedules, want %d"
               o.MC.fixture o.MC.stats.MC.schedules check_cap)
        | None -> None)
      runs
  in
  let facts =
    List.concat_map
      (fun ((o : MC.outcome), _) ->
        let s = o.MC.stats in
        let k = "check." ^ o.MC.fixture in
        [
          (k ^ ".schedules", string_of_int s.MC.schedules);
          (k ^ ".pruned", string_of_int s.MC.pruned);
          (k ^ ".truncated", string_of_int s.MC.truncated);
          (k ^ ".decisions", string_of_int s.MC.decisions);
          (k ^ ".max_depth", string_of_int s.MC.max_depth);
        ])
      runs
  in
  let stats = List.map (fun ((o : MC.outcome), _) -> o.MC.stats) runs in
  let total f = float_of_int (List.fold_left (fun a s -> a + f s) 0 stats) in
  let depth = List.fold_left (fun a s -> max a s.MC.max_depth) 0 stats in
  {
    failure;
    facts;
    sim = [];
    layer =
      [
        ("analysis.modelcheck.schedules", total (fun s -> s.MC.schedules));
        ("analysis.modelcheck.decisions", total (fun s -> s.MC.decisions));
        ("analysis.modelcheck.max_depth", float_of_int depth);
      ];
  }

(* What "set-up" means for the checker: a fresh cluster for the first
   fixture with its main thread spawned, as every schedule does. *)
let check_setup_spec () =
  let fx = List.hd MC.fixtures in
  {
    cfg = fx.MC.cfg;
    body =
      (fun rt ->
        ignore (fx.MC.body rt : unit -> string list);
        fun ~verify:_ -> { failure = None; facts = []; sim = []; layer = [] });
  }

(* ------------------------------------------------------------------ *)
(* Timed runs                                                          *)
(* ------------------------------------------------------------------ *)

let setup_reps = 15

let setup_samples spec =
  List.init setup_reps (fun _ ->
      let t0 = now_ns () in
      let b = boot spec in
      let dt = secs_since t0 in
      ignore (Sys.opaque_identity b);
      dt)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

module Int_map = Map.Make (Int)

(* A fixed host workload with the simulator's profile: short-lived
   allocation, boxed floats, hash-table and balanced-tree updates, a
   sort.  It uses nothing from the libraries, so no change to them moves
   it; it only tracks how fast this machine runs right now. *)
let calibration_work () =
  let st = ref 0x2545F491 in
  let next () =
    st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
    !st
  in
  let tbl = Hashtbl.create 1024 in
  let m = ref Int_map.empty in
  let acc = ref 0.0 in
  for i = 1 to 100_000 do
    let k = next () land 4095 in
    Hashtbl.replace tbl k (float_of_int i);
    m := Int_map.add k (float_of_int i) !m;
    match Hashtbl.find_opt tbl (next () land 4095) with
    | Some v -> acc := !acc +. Float.sqrt v
    | None -> ()
  done;
  let l = List.init 30_000 (fun _ -> next ()) in
  ignore (Sys.opaque_identity (List.sort compare l, !m, !acc))

(* Median of three timings, taken once the run is over and its state
   has been collected, so that the simulator's heap does not weigh on
   them. *)
let calibration_s () =
  Gc.compact ();
  median
    (List.init 3 (fun _ ->
         let t0 = now_ns () in
         calibration_work ();
         secs_since t0))

(* The JSON object a run prints: the gate's verdict, the timings, the
   digest of the simulated outputs, and the simulated and per-layer
   numbers. *)
let result (o : outcome) ~facts ~layer timings =
  Obj
    ([
       ("ok", Bool (o.failure = None));
       ("error", match o.failure with Some e -> Str e | None -> Null);
     ]
    @ List.map (fun (k, v) -> (k, Num v)) timings
    @ [
        ("digest", Str (digest facts));
        ("sim", nums o.sim);
        ("layer", nums layer);
      ])

let gc_layer (g0 : Gc.stat) (g1 : Gc.stat) ~events =
  let minor = g1.Gc.minor_words -. g0.Gc.minor_words in
  let promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words in
  let major = g1.Gc.major_words -. g0.Gc.major_words in
  let allocated = minor +. major -. promoted in
  [
    ("gc.minor_mw", minor /. 1e6);
    ("gc.promoted_mw", promoted /. 1e6);
    ( "gc.minor_collections",
      float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections) );
    ( "gc.major_collections",
      float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) );
    ( "gc.words_per_event",
      if events > 0 then allocated /. float_of_int events else 0.0 );
  ]

let heap_peak_mib () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Instrumentation a "profile" or "watch" run attaches inside main: the
   first closure runs when the workload body returns, the second after
   the engine drains (the report a user of the flag would print). *)
type instrument = A.Runtime.t -> (unit -> unit) * (unit -> unit)

let profile_instrument rt =
  let p = Scope.Profile.attach rt in
  ( (fun () -> Scope.Profile.seal p),
    fun () ->
      ignore (Scope.Profile.report_lines p : string list);
      ignore (Scope.Profile.critical_path p : Scope.Critical_path.report) )

let watch_instrument rt =
  let w = Watch.attach rt () in
  ( (fun () -> Watch.stop w),
    fun () -> ignore (Watch.report_lines w : string list) )

let instrumented (inst : instrument) spec =
  let finish = ref ignore in
  let body rt =
    let stop, fin = inst rt in
    finish := fin;
    let k = spec.body rt in
    stop ();
    k
  in
  ({ spec with body }, fun () -> !finish ())

(* One timed run: [wall_s] covers [Cluster.run] (set-up, engine loop and
   failure check), [setup_s] is the median of [setup_reps] boots made
   after the run (so they touch neither the run's timing nor its heap
   peak), and [calib_s] times the calibration workload last. *)
let timed_sim ?instrument spec ~verify =
  let spec, finish =
    match instrument with
    | None -> (spec, ignore)
    | Some inst -> instrumented inst spec
  in
  let g0 = Gc.quick_stat () in
  let rt = ref None in
  let t0 = now_ns () in
  let eval, (_ : A.Cluster.report) =
    A.Cluster.run spec.cfg (fun r ->
        rt := Some r;
        spec.body r)
  in
  finish ();
  let wall = secs_since t0 in
  let g1 = Gc.quick_stat () in
  let heap = heap_peak_mib () in
  let rt = Option.get !rt in
  let o = eval ~verify in
  let facts = o.facts @ cluster_facts rt in
  let events = Sim.Engine.events_executed (A.Runtime.engine rt) in
  let layer = cluster_layer rt @ o.layer @ gc_layer g0 g1 ~events in
  let setup = median (setup_samples spec) in
  result o ~facts ~layer
    [
      ("wall_s", wall);
      ("setup_s", setup);
      ("heap_peak_mb", heap);
      ("calib_s", calibration_s ());
    ]

let timed_check () =
  let g0 = Gc.quick_stat () in
  let t0 = now_ns () in
  let runs = check_run () in
  let wall = secs_since t0 in
  let g1 = Gc.quick_stat () in
  let heap = heap_peak_mib () in
  let o = check_outcome runs in
  let decisions =
    int_of_float (List.assoc "analysis.modelcheck.decisions" o.layer)
  in
  let setup = median (setup_samples (check_setup_spec ())) in
  result o ~facts:o.facts
    ~layer:(o.layer @ gc_layer g0 g1 ~events:decisions)
    [
      ("wall_s", wall);
      ("setup_s", setup);
      ("heap_peak_mb", heap);
      ("calib_s", calibration_s ());
    ]

(* ------------------------------------------------------------------ *)
(* Traced runs                                                         *)
(* ------------------------------------------------------------------ *)

(* Host-time spans and counter samples, kept in memory and written as
   Chrome trace-event JSON when the run ends. *)
module Tracefile = struct
  type t = {
    origin : int64;
    mutable next_id : int;
    mutable events : string list;
  }

  let create () = { origin = now_ns (); next_id = 1; events = [] }
  let us t ns = Int64.to_float (Int64.sub ns t.origin) /. 1e3

  (* Returns the new span's id and a function that closes it. *)
  let open_span t ?(args = []) ~parent name =
    let id = t.next_id in
    t.next_id <- id + 1;
    let t0 = now_ns () in
    ( id,
      fun () ->
        let t1 = now_ns () in
        let args =
("span", Int id) :: ("parent", Int parent) :: args in
        t.events <-
          json_to_string
            (Obj
               [
                 ("ph", Str "X");
                 ("name", Str name);
                 ("cat", Str "bench");
                 ("pid", Int 0);
                 ("tid", Int 0);
                 ("ts", Num (us t t0));
                 ("dur", Num (Int64.to_float (Int64.sub t1 t0) /. 1e3));
                 ("args", Obj args);
               ])
          :: t.events )

  let counter t name v =
    t.events <-
      json_to_string
        (Obj
           [
             ("ph", Str "C");
             ("name", Str name);
             ("pid", Int 0);
             ("ts", Num (us t (now_ns ())));
             ("args", Obj [ ("value", Num v) ]);
           ])
      :: t.events

  let write t path =
    let oc = open_out path in
    output_string oc "{\"traceEvents\":[\n";
    output_string oc (String.concat ",\n" (List.rev t.events));
    output_string oc "\n]}\n";
    close_out oc
end

module H = Sim.Stats.Log_histogram

(* Nanoseconds at percentile [p] of a histogram of seconds. *)
let ns_at h p = if H.count h = 0 then 0.0 else 1e9 *. H.percentile h p

let chunk_steps = 16384

(* The traced run: the Cluster.run loop one [Sim.Engine.step] at a time,
   each step timed on the monotonic clock, the public gauges sampled
   after every step. *)
let traced_sim spec ~out =
  let tf = Tracefile.create () in
  let root, close_root = Tracefile.open_span tf ~parent:0 "bench.run" in
  let _, close_setup = Tracefile.open_span tf ~parent:root "setup" in
  let b = boot spec in
  close_setup ();
  let rt = b.rt in
  let eng = A.Runtime.engine rt in
  let ether = A.Runtime.ether rt in
  let rpc = A.Runtime.rpc rt in
  let ms = machines rt in
  let nodes = Array.length ms in
  let steps = H.create () in
  let pending_sum = ref 0.0 and pending_peak = ref 0 in
  let backlog_peak = ref 0.0 and ready_peak = ref 0 in
  let in_flight_peak = ref 0 and rpc_backlog_peak = ref 0 in
  let sim_id, close_sim = Tracefile.open_span tf ~parent:root "sim.run" in
  let t_sim = now_ns () in
  let chunk = ref None in
  let running = ref true in
  while !running do
    if !chunk = None then
      chunk :=
        Some
          (snd
             (Tracefile.open_span tf ~parent:sim_id "sim.engine.steps"
                ~args:[ ("first", Int (H.count steps)) ]));
    let t0 = now_ns () in
    let stepped = Sim.Engine.step eng in
    let dt = secs_since t0 in
    if not stepped then running := false
    else begin
      H.add steps dt;
      let p = Sim.Engine.pending eng in
      pending_sum := !pending_sum +. float_of_int p;
      if p > !pending_peak then pending_peak := p;
      let backlog = Hw.Ethernet.busy_until ether -. Sim.Engine.now eng in
      if backlog > !backlog_peak then backlog_peak := backlog;
      for i = 0 to nodes - 1 do
        let r = Hw.Machine.ready_length ms.(i) in
        if r > !ready_peak then ready_peak := r;
        let q = Topaz.Rpc.backlog rpc i in
        if q > !rpc_backlog_peak then rpc_backlog_peak := q
      done;
      let f = Topaz.Rpc.in_flight rpc in
      if f > !in_flight_peak then in_flight_peak := f
    end;
    if H.count steps mod chunk_steps = 0 || not !running then begin
      Option.iter (fun close -> close ()) !chunk;
      chunk := None;
      Tracefile.counter tf "sim.engine.pending"
        (float_of_int (Sim.Engine.pending eng));
      Tracefile.counter tf "hw.ethernet.backlog_s"
        (Float.max 0.0 (Hw.Ethernet.busy_until ether -. Sim.Engine.now eng));
      Tracefile.counter tf "topaz.rpc.in_flight"
        (float_of_int (Topaz.Rpc.in_flight rpc))
    end
  done;
  let _, close_check = Tracefile.open_span tf ~parent:sim_id "check_failures" in
  let eval = conclude b in
  close_check ();
  let wall = secs_since t_sim in
  close_sim ();
  let _, close_verify = Tracefile.open_span tf ~parent:root "verify" in
  let o = eval ~verify:true in
  close_verify ();
  close_root ();
  Tracefile.write tf out;
  let n = H.count steps in
  result o
    ~facts:(o.facts @ cluster_facts rt)
    ~layer:
      (cluster_layer rt @ o.layer
      @ [
          ("sim.engine.step_ns_p50", ns_at steps 50.0);
          ("sim.engine.step_ns_p99", ns_at steps 99.0);
          ( "sim.engine.pending_mean",
            if n = 0 then 0.0 else !pending_sum /. float_of_int n );
          ("sim.engine.pending_peak", float_of_int !pending_peak);
          ("hw.machine.ready_peak", float_of_int !ready_peak);
          ("hw.ethernet.backlog_peak_s", !backlog_peak);
          ("topaz.rpc.in_flight_peak", float_of_int !in_flight_peak);
          ("topaz.rpc.backlog_peak", float_of_int !rpc_backlog_peak);
        ])
    [ ("wall_s", wall) ]

(* The checker owns its engine loop, so its traced run records one span
   per fixture; the step percentiles are over the fixtures' mean host
   cost per decision. *)
let traced_check ~out =
  let tf = Tracefile.create () in
  let root, close_root = Tracefile.open_span tf ~parent:0 "bench.run" in
  let t0 = now_ns () in
  let runs =
    List.map
      (fun fx ->
        let _, close =
          Tracefile.open_span tf ~parent:root
            ("analysis.modelcheck." ^ MC.fixture_name fx)
        in
        let t = now_ns () in
        let o = MC.explore ~max_schedules:check_cap fx in
        let dt = secs_since t in
        close ();
        Tracefile.counter tf "analysis.modelcheck.decisions"
          (float_of_int o.MC.stats.MC.decisions);
        (o, dt))
      MC.fixtures
  in
  let wall = secs_since t0 in
  close_root ();
  Tracefile.write tf out;
  let o = check_outcome runs in
  let per_decision = H.create () in
  List.iter
    (fun ((o : MC.outcome), dt) ->
      if o.MC.stats.MC.decisions > 0 then
        H.add per_decision (dt /. float_of_int o.MC.stats.MC.decisions))
    runs;
  result o ~facts:o.facts
    ~layer:
      (o.layer
      @ [
          ("sim.engine.step_ns_p50", ns_at per_decision 50.0);
          ("sim.engine.step_ns_p99", ns_at per_decision 99.0);
        ])
    [ ("wall_s", wall) ]

(* ------------------------------------------------------------------ *)
(* Isolated unit costs                                                 *)
(* ------------------------------------------------------------------ *)

(* Bechamel OLS over the monotonic clock, the mechanism [bench host]
   uses.  The event-queue case holds the queue at [depth] entries (pop
   the earliest, push it back later: the "hold" model), so [op_ns] is
   one add+pop pair; the Ethernet case sends 100 packets and drains
   their deliveries, so [send_ns] covers a packet's send and delivery. *)
let units depth =
  let open Bechamel in
  let depth = max 1 depth in
  let q = Sim.Event_queue.create () in
  for i = 0 to depth - 1 do
    Sim.Event_queue.add q ~time:(float_of_int i) i
  done;
  let hold =
    Test.make ~name:"queue-hold-x100"
      (Staged.stage (fun () ->
           for _ = 1 to 100 do
             match Sim.Event_queue.pop q with
             | Some (t, v) ->
               Sim.Event_queue.add q
                 ~time:(t +. 1.0 +. float_of_int (v * 7919 mod depth))
                 v
             | None -> ()
           done))
  in
  let eng = Sim.Engine.create () in
  let net = Hw.Ethernet.create ~engine:eng () in
  let send =
    Test.make ~name:"ethernet-send-x100"
      (Staged.stage (fun () ->
           for i = 0 to 99 do
             ignore
               (Hw.Ethernet.send net
                  (Hw.Packet.make ~src:(i land 3) ~dst:((i + 1) land 3)
                     ~size:128 ~kind:"bench" ignore)
                 : float)
           done;
           ignore (Sim.Engine.run eng : int)))
  in
  let tests = Test.make_grouped ~name:"units" [ hold; send ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let est name =
    match Hashtbl.find_opt results ("units/" ^ name) with
    | Some o -> (
      match Analyze.OLS.estimates o with
      | Some [ ns ] -> ns
      | Some _ | None -> nan)
    | None -> nan
  in
  Obj
    [
      ("depth", Int depth);
      ("op_ns", Num (est "queue-hold-x100" /. 100.0));
      ("send_ns", Num (est "ethernet-send-x100" /. 100.0));
    ]

(* ------------------------------------------------------------------ *)

let guarded f =
  try f ()
  with e ->
    Obj [ ("ok", Bool false); ("error", Str (Printexc.to_string e)) ]

let () =
  let result =
    match Array.to_list Sys.argv with
    | [ _; "run"; w; seed; verify ] ->
      guarded (fun () ->
          match workload w (int_of_string seed) with
          | Sim_workload spec -> timed_sim spec ~verify:(verify = "1")
          | Check -> timed_check ())
    | [ _; ("profile" | "watch") as mode; w; seed ] ->
      guarded (fun () ->
          match workload w (int_of_string seed) with
          | Sim_workload spec ->
            let instrument =
              if mode = "profile" then profile_instrument else watch_instrument
            in
            timed_sim ~instrument spec ~verify:false
          | Check -> failwith "check owns its runtimes; nothing to attach")
    | [ _; "trace"; w; seed; out ] ->
      guarded (fun () ->
          match workload w (int_of_string seed) with
          | Sim_workload spec -> traced_sim spec ~out
          | Check -> traced_check ~out)
    | [ _; "units"; depth ] -> units (int_of_string depth)
    | _ ->
      prerr_endline
        "usage: harness.exe (run W SEED VERIFY | trace W SEED OUT | \
         profile W SEED | watch W SEED | units DEPTH)";
      exit 2
  in
  print_endline (json_to_string result)
