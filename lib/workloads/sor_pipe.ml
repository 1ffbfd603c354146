module A = Amber
open Sor_section

(* Pipelined Red/Black SOR: the Sor_amber program restructured around
   asynchronous invocation (Amber-Async).  The numerical work, the
   section partitioning and the phase gating are Sor_section's, shared
   with Sor_amber — the checksum is bit-for-bit the same — but the
   per-neighbor edge-push threads are gone.  Instead the coordinator
   captures the finished edge co-residently and ships it with
   [Future.invoke_async], overlapping the exchange (and the
   end-of-iteration convergence barrier) against the interior
   computation.  Per-side depth-1 pipelining — await the previous phase's
   push future before issuing the next — serializes same-destination
   ghost installs so the [recv_*] max-gating stays correct. *)

type result = {
  iterations : int;
  checksum : float;
  compute_elapsed : float;
  total_elapsed : float;
  remote_invocations : int;
  thread_migrations : int;
  async_invocations : int;
}

let report_async rt master_obj clock delta =
  A.Future.invoke_async rt master_obj (report_op clock delta)

(* --- coordinator: async edge pushes and pipelined barrier ---------------- *)

let coordinator_op rt p (cfg : Sor_amber.cfg) master_obj clock sec_objs
    ~iters i s =
  let nsections = Array.length sec_objs in
  let has_left = i > 0 and has_right = i < nsections - 1 in
  let nworkers = cfg.Sor_amber.workers_per_section in
  let workers = start_workers rt p ~prefix:"sorp" ~nworkers sec_objs i in
  (* Setup barrier stays synchronous: timing starts when every
     section is ready. *)
  ignore (report rt master_obj clock 0.0 : float);
  (* Per-side depth-1 pipeline state. *)
  let prev_left : unit A.Future.t option ref = ref None in
  let prev_right : unit A.Future.t option ref = ref None in
  let prev_report : float A.Future.t option ref = ref None in
  let push_edge side phase =
    (* Serialize same-side installs: only after the previous push
       landed may a newer one overwrite the neighbor's ghost slots,
       keeping the recv_* max-gating truthful. *)
    let prev = match side with `Left -> prev_left | `Right -> prev_right in
    Option.iter (A.Future.await rt) !prev;
    let neighbor_obj =
      match side with
      | `Left -> sec_objs.(i - 1)
      | `Right -> sec_objs.(i + 1)
    in
    let payload, install = edge_push s ~side phase in
    prev := Some (A.Future.invoke_async rt ~payload neighbor_obj install)
  in
  let do_phase phase =
    compute_borders rt s ~nworkers ~has_left ~has_right phase;
    (* Edges complete: ship them without blocking the interior. *)
    if has_left then push_edge `Left phase;
    if has_right then push_edge `Right phase;
    if not cfg.Sor_amber.overlap then begin
      (* Degenerate (diagnostic) mode: drain the exchange before the
         interior, like Sor_amber with overlap off. *)
      Option.iter (A.Future.await rt) !prev_left;
      Option.iter (A.Future.await rt) !prev_right
    end;
    s.interior_release <- phase;
    notify rt s;
    wait_for rt s (fun () -> s.workers_done >= nworkers * phase)
  in
  for it = 1 to iters do
    do_phase (((it - 1) * 2) + 1);
    do_phase (((it - 1) * 2) + 2);
    let delta = s.delta in
    s.delta <- 0.0;
    (* Pipelined convergence barrier: overlap round [it] against the
       next iteration's compute, awaiting it only before joining
       round [it + 1] — so rounds never interleave at the master. *)
    Option.iter (fun f -> ignore (A.Future.await rt f)) !prev_report;
    prev_report := Some (report_async rt master_obj clock delta)
  done;
  (* Drain the pipeline before tearing the section down. *)
  Option.iter (A.Future.await rt) !prev_left;
  Option.iter (A.Future.await rt) !prev_right;
  Option.iter (fun f -> ignore (A.Future.await rt f)) !prev_report;
  s.stop <- true;
  notify rt s;
  ignore (A.Athread.join_all rt workers : unit list);
  iters

(* --- top level ----------------------------------------------------------- *)

let run rt (p : Sor_core.params) ?cfg ~iters () =
  if iters <= 0 then invalid_arg "Sor_pipe: iterations";
  let cfg = match cfg with Some c -> c | None -> Sor_amber.default_cfg rt in
  let ctrs = A.Runtime.counters rt in
  let remote0 = ctrs.A.Runtime.remote_invocations in
  let migr0 = ctrs.A.Runtime.thread_migrations in
  let async0 = ctrs.A.Runtime.async_invocations in
  let t0 = A.Runtime.now rt in
  let clock () = A.Runtime.now rt in
  let nsections = cfg.Sor_amber.sections in
  let master_state, master_obj, sec_objs =
    create rt p ~prefix:"sorp" ~sections:nsections
  in
  let dests = destinations rt ~sections:nsections cfg.Sor_amber.placement in
  (* Overlapped distribution: Sor_amber ships the sections one blocking
     move at a time, serializing the whole-object transfers (and their
     locate round trips) on the main thread.  Here each move runs on its
     own helper thread, so the transfer latencies overlap and setup
     costs roughly one move plus the shared-wire serialization instead
     of their sum. *)
  let movers =
    Array.to_list sec_objs
    |> List.mapi (fun i obj ->
           if dests.(i) <> 0 then
             Some
               (A.Athread.start rt
                  ~name:(Printf.sprintf "sorp%d-mover" i)
                  (fun () -> A.Mobility.move_to rt obj ~dest:dests.(i)))
           else None)
    |> List.filter_map Fun.id
  in
  ignore (A.Athread.join_all rt movers : unit list);
  (* Each coordinator is itself an asynchronous invocation on its
     section.  Besides being the natural phrasing, this keeps the
     teardown path clean: joining a thread that migrated away pays a
     locate chase over its forwarding chain (§3.4), whereas a future
     resolves home with a single notify datagram. *)
  let coords =
    Array.mapi
      (fun i _ ->
        A.Future.invoke_async rt sec_objs.(i)
          (coordinator_op rt p cfg master_obj clock sec_objs ~iters i))
      sec_objs
  in
  let iteration_counts = A.Future.await_all rt (Array.to_list coords) in
  List.iter
    (fun n ->
      if n <> iters then failwith "Sor_pipe: coordinator iteration mismatch")
    iteration_counts;
  {
    iterations = iters;
    checksum = checksum p sec_objs;
    compute_elapsed = master_state.t_last -. master_state.t_ready;
    total_elapsed = A.Runtime.now rt -. t0;
    remote_invocations = ctrs.A.Runtime.remote_invocations - remote0;
    thread_migrations = ctrs.A.Runtime.thread_migrations - migr0;
    async_invocations = ctrs.A.Runtime.async_invocations - async0;
  }
