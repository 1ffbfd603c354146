module A = Amber

type cfg = {
  sections : int;
  overlap : bool;
  workers_per_section : int;
  placement : (int -> int) option;
      (* section -> node; None = blocked placement over the cluster *)
}

let default_cfg rt =
  let nodes = A.Runtime.nodes rt in
  let cpus = (A.Runtime.config rt).A.Config.cpus_per_node in
  (* The paper partitions into 8 sections, except 6 for the 3- and 6-node
     experiments. *)
  let sections = if nodes mod 3 = 0 then 6 else 8 in
  let sections = max sections nodes in
  {
    sections;
    overlap = true;
    workers_per_section = max 1 (nodes * cpus / sections);
    placement = None;
  }

type result = {
  iterations : int;
  checksum : float;
  compute_elapsed : float;
  total_elapsed : float;
  remote_invocations : int;
  thread_migrations : int;
}

open Sor_section

(* --- pusher / coordinator bodies ----------------------------------------- *)

(* Push this section's border-column values of the current color into the
   neighbor's ghost column. *)
let pusher_body rt sec_obj neighbor_obj ~side () =
  A.Invoke.invoke rt sec_obj (fun s ->
      let rec loop next =
        wait_for rt s (fun () -> s.stop || s.push_phase >= next);
        if not s.stop then begin
          let payload, install = edge_push s ~side next in
          A.Invoke.invoke rt ~payload neighbor_obj install;
          s.pushes_done <- s.pushes_done + 1;
          notify rt s;
          loop (next + 1)
        end
      in
      loop 1)

type mode = Fixed of int | Converge of { eps : float; max_iters : int }

let coordinator_body rt p cfg master_obj clock sec_objs ~mode i () =
  let nsections = Array.length sec_objs in
  let has_left = i > 0 and has_right = i < nsections - 1 in
  let n_push = (if has_left then 1 else 0) + (if has_right then 1 else 0) in
  A.Invoke.invoke rt sec_objs.(i) (fun s ->
      (* Helper threads are created here, on the section's node, and are
         bound to the section by their own invocations. *)
      let workers =
        start_workers rt p ~prefix:"sor" ~nworkers:cfg.workers_per_section
          sec_objs i
      in
      let pushers =
        (if has_left then
           [
             A.Athread.start rt
               ~name:(Printf.sprintf "sor%d-pl" i)
               (pusher_body rt sec_objs.(i) sec_objs.(i - 1) ~side:`Left);
           ]
         else [])
        @
        if has_right then
          [
            A.Athread.start rt
              ~name:(Printf.sprintf "sor%d-pr" i)
              (pusher_body rt sec_objs.(i) sec_objs.(i + 1) ~side:`Right);
          ]
        else []
      in
      (* Setup barrier: timing starts when every section is ready. *)
      ignore (report rt master_obj clock 0.0 : float);
      let do_phase phase =
        compute_borders rt s ~nworkers:cfg.workers_per_section ~has_left
          ~has_right phase;
        (* Edge values are complete: start the exchange. *)
        s.push_phase <- phase;
        notify rt s;
        if not cfg.overlap then
          (* No overlap: the exchange completes before the interior
             computation starts. *)
          wait_for rt s (fun () -> s.pushes_done >= n_push * phase);
        s.interior_release <- phase;
        notify rt s;
        wait_for rt s (fun () ->
            s.workers_done >= cfg.workers_per_section * phase
            && s.pushes_done >= n_push * phase)
      in
      let iterations_done = ref 0 in
      let continue_after it global_delta =
        match mode with
        | Fixed n -> it < n
        | Converge { eps; max_iters } -> global_delta >= eps && it < max_iters
      in
      let rec iteration it =
        do_phase (((it - 1) * 2) + 1);
        do_phase (((it - 1) * 2) + 2);
        let global_delta = report rt master_obj clock s.delta in
        s.delta <- 0.0;
        iterations_done := it;
        (* Every coordinator sees the same combined delta, so they all
           make the same decision. *)
        if continue_after it global_delta then iteration (it + 1)
      in
      iteration 1;
      s.stop <- true;
      notify rt s;
      List.iter (fun t -> A.Athread.join rt t) workers;
      List.iter (fun t -> A.Athread.join rt t) pushers;
      !iterations_done)

(* --- top level ----------------------------------------------------------- *)

let run_mode rt (p : Sor_core.params) ?cfg mode =
  (match mode with
  | Fixed n when n <= 0 -> invalid_arg "Sor_amber: iterations"
  | Converge { eps; max_iters } when eps <= 0.0 || max_iters <= 0 ->
    invalid_arg "Sor_amber: convergence parameters"
  | Fixed _ | Converge _ -> ());
  let cfg = match cfg with Some c -> c | None -> default_cfg rt in
  let ctrs = A.Runtime.counters rt in
  let remote0 = ctrs.A.Runtime.remote_invocations in
  let migr0 = ctrs.A.Runtime.thread_migrations in
  let t0 = A.Runtime.now rt in
  let clock () = A.Runtime.now rt in
  let master_state, master_obj, sec_objs =
    create rt p ~prefix:"sor" ~sections:cfg.sections
  in
  (* Distribute the sections (explicit placement, §2.3). *)
  let dests = destinations rt ~sections:cfg.sections cfg.placement in
  Array.iteri
    (fun i obj ->
      if dests.(i) <> 0 then A.Mobility.move_to rt obj ~dest:dests.(i))
    sec_objs;
  (* One coordinator thread per section; Start makes it run an operation
     on the section object, migrating it to the section's node. *)
  let coords =
    Array.mapi
      (fun i _ ->
        A.Athread.start rt
          ~name:(Printf.sprintf "sor%d-coord" i)
          (coordinator_body rt p cfg master_obj clock sec_objs ~mode i))
      sec_objs
  in
  let iteration_counts = Array.map (fun t -> A.Athread.join rt t) coords in
  let iterations = iteration_counts.(0) in
  Array.iter
    (fun n ->
      if n <> iterations then
        failwith "Sor_amber: coordinators disagree on iteration count")
    iteration_counts;
  {
    iterations;
    checksum = checksum p sec_objs;
    compute_elapsed = master_state.t_last -. master_state.t_ready;
    total_elapsed = A.Runtime.now rt -. t0;
    remote_invocations = ctrs.A.Runtime.remote_invocations - remote0;
    thread_migrations = ctrs.A.Runtime.thread_migrations - migr0;
  }

let run rt p ?cfg ~iters () = run_mode rt p ?cfg (Fixed iters)

let run_to_convergence rt p ?cfg ~eps ~max_iters () =
  run_mode rt p ?cfg (Converge { eps; max_iters })
