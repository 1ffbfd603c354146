module A = Amber

(* The section engine shared by the two Amber SOR programs, Sor_amber
   (edge-push threads) and Sor_pipe (futures): section state and its
   intra-section signalling, the Red/Black kernels, the worker body, the
   edge capture, the master convergence object, and the column
   partitioning.  Each program adds only its coordinator and its way of
   moving edges and sections. *)

(* --- section state ------------------------------------------------------ *)

(* Local cells are (rows+2) × (ncols+2) row-major: a boundary/ghost ring
   around the section's interior columns.  Column 0 and column ncols+1
   hold either the global boundary or ghost copies of neighbor edges. *)
type section = {
  idx : int;
  rows : int;
  ncols : int;
  col0 : int;  (* global 1-based column index of local column 1 *)
  stride : int;
  cells : float array;
  mutable comp_phase : int;  (* latest phase released to workers *)
  mutable push_phase : int;  (* latest phase released to pushers *)
  mutable interior_release : int;  (* latest phase whose interior may run *)
  mutable border_done : int;  (* cumulative border-slice completions *)
  mutable workers_done : int;  (* cumulative phase completions *)
  mutable pushes_done : int;
  mutable recv_left : int;  (* latest phase received from the left *)
  mutable recv_right : int;
  mutable delta : float;
  mutable stop : bool;
  mutable waiters : (unit -> unit) list;
}

(* Intra-section signalling: the participants are bound to (and therefore
   co-resident with) the section object, so this is hardware shared-memory
   synchronization; we charge the fast-lock cost per operation. *)
let sync_cost rt = (A.Runtime.cost rt).A.Cost_model.lock_fast_cpu

let notify rt s =
  Sim.Fiber.consume (sync_cost rt);
  let ws = s.waiters in
  s.waiters <- [];
  List.iter (fun wake -> wake ()) ws

let rec wait_for rt s pred =
  Sim.Fiber.consume (sync_cost rt);
  if not (pred ()) then begin
    Sim.Fiber.block (fun wake -> s.waiters <- wake :: s.waiters);
    wait_for rt s pred
  end

let phase_color phase = if phase land 1 = 1 then Sor_core.Red else Sor_core.Black

(* Update all points of [color] in local columns [c_from..c_to]; returns
   (points updated, max delta). *)
let compute_range s (p : Sor_core.params) color ~c_from ~c_to =
  let pts = ref 0 and delta = ref 0.0 in
  for lc = c_from to c_to do
    let gc = s.col0 + lc - 1 in
    for r = 1 to s.rows do
      match (Sor_core.color_of ~r ~c:gc, color) with
      | Sor_core.Red, Sor_core.Red | Sor_core.Black, Sor_core.Black ->
        let i = (r * s.stride) + lc in
        let old = s.cells.(i) in
        let avg =
          (s.cells.(i - 1) +. s.cells.(i + 1) +. s.cells.(i - s.stride)
          +. s.cells.(i + s.stride))
          /. 4.0
        in
        let next = old +. (p.Sor_core.omega *. (avg -. old)) in
        s.cells.(i) <- next;
        incr pts;
        let d = Float.abs (next -. old) in
        if d > !delta then delta := d
      | Sor_core.Red, Sor_core.Black | Sor_core.Black, Sor_core.Red -> ()
    done
  done;
  (!pts, !delta)

let charge_points _rt (p : Sor_core.params) pts =
  if pts > 0 then Sim.Fiber.consume (p.Sor_core.point_cpu *. float_of_int pts)

(* --- master convergence object (barrier with a combined value) ---------- *)

type master_cell = {
  mutable out : float;
  mutable cell_wake : (unit -> unit) option;
  mutable fired : bool;
}

type master = {
  parties : int;
  mutable arrived : int;
  mutable agg : float;
  mutable waiting : master_cell list;
  mutable rounds : int;
  mutable t_ready : float;  (* completion time of round 1 (setup barrier) *)
  mutable t_last : float;  (* completion time of the latest round *)
}

(* Barrier-with-value body, run by a synchronous or an asynchronous
   invocation on the master object. *)
let report_op clock delta m =
  if delta > m.agg then m.agg <- delta;
  if m.arrived + 1 >= m.parties then begin
    let value = m.agg in
    m.arrived <- 0;
    m.agg <- 0.0;
    m.rounds <- m.rounds + 1;
    let t = clock () in
    if m.rounds = 1 then m.t_ready <- t;
    m.t_last <- t;
    let cells = m.waiting in
    m.waiting <- [];
    List.iter
      (fun c ->
        c.out <- value;
        c.fired <- true;
        match c.cell_wake with Some wake -> wake () | None -> ())
      cells;
    value
  end
  else begin
    m.arrived <- m.arrived + 1;
    let c = { out = 0.0; cell_wake = None; fired = false } in
    m.waiting <- c :: m.waiting;
    Sim.Fiber.block (fun wake ->
        if c.fired then wake () else c.cell_wake <- Some wake);
    c.out
  end

let report rt master_obj clock delta =
  A.Invoke.invoke rt master_obj (report_op clock delta)

(* --- worker body and edge exchange -------------------------------------- *)

(* Update all points of [color] in border column [lc], rows r_from..r_to. *)
let compute_border_rows s (p : Sor_core.params) color ~lc ~r_from ~r_to =
  let pts = ref 0 and delta = ref 0.0 in
  let gc = s.col0 + lc - 1 in
  for r = r_from to r_to do
    match (Sor_core.color_of ~r ~c:gc, color) with
    | Sor_core.Red, Sor_core.Red | Sor_core.Black, Sor_core.Black ->
      let i = (r * s.stride) + lc in
      let old = s.cells.(i) in
      let avg =
        (s.cells.(i - 1) +. s.cells.(i + 1) +. s.cells.(i - s.stride)
        +. s.cells.(i + s.stride))
        /. 4.0
      in
      let next = old +. (p.Sor_core.omega *. (avg -. old)) in
      s.cells.(i) <- next;
      incr pts;
      let d = Float.abs (next -. old) in
      if d > !delta then delta := d
    | Sor_core.Red, Sor_core.Black | Sor_core.Black, Sor_core.Red -> ()
  done;
  (!pts, !delta)

let worker_body rt p ~nworkers sec_obj ~w () =
  A.Invoke.invoke rt sec_obj (fun s ->
      let rec loop next =
        wait_for rt s (fun () -> s.stop || s.comp_phase >= next);
        if not s.stop then begin
          let color = phase_color next in
          (* Border columns first, rows split across workers, so the edge
             values are ready to travel as early as possible. *)
          let r_from = 1 + (w * s.rows / nworkers) in
          let r_to = (w + 1) * s.rows / nworkers in
          if r_to >= r_from then begin
            let border_cols = if s.ncols = 1 then [ 1 ] else [ 1; s.ncols ] in
            List.iter
              (fun lc ->
                let pts, d =
                  compute_border_rows s p color ~lc ~r_from ~r_to
                in
                charge_points rt p pts;
                if d > s.delta then s.delta <- d)
              border_cols
          end;
          s.border_done <- s.border_done + 1;
          notify rt s;
          (* The interior may be gated behind the edge exchange when
             overlap is disabled. *)
          wait_for rt s (fun () -> s.stop || s.interior_release >= next);
          if not s.stop then begin
            let lo = 2 and hi = s.ncols - 1 in
            let width = hi - lo + 1 in
            if width > 0 then begin
              let c_from = lo + (w * width / nworkers) in
              let c_to = lo + (((w + 1) * width / nworkers) - 1) in
              if c_to >= c_from then begin
                let pts, d = compute_range s p color ~c_from ~c_to in
                charge_points rt p pts;
                if d > s.delta then s.delta <- d
              end
            end;
            s.workers_done <- s.workers_done + 1;
            notify rt s;
            loop (next + 1)
          end
        end
      in
      loop 1)

(* Start section [i]'s workers, named [<prefix><i>-w<w>].  Called from the
   coordinator's invocation on the section, so they start on its node. *)
let start_workers rt p ~prefix ~nworkers sec_objs i =
  List.init nworkers (fun w ->
      A.Athread.start rt
        ~name:(Printf.sprintf "%s%d-w%d" prefix i w)
        (worker_body rt p ~nworkers sec_objs.(i) ~w))

(* Wait until the ghost values [phase]'s color reads are in place, then
   release the workers onto the border columns and wait for the edges. *)
let compute_borders rt s ~nworkers ~has_left ~has_right phase =
  wait_for rt s (fun () ->
      ((not has_left) || s.recv_left >= phase - 1)
      && ((not has_right) || s.recv_right >= phase - 1));
  s.comp_phase <- phase;
  notify rt s;
  wait_for rt s (fun () -> s.border_done >= nworkers * phase)

(* Capture the [side] border column's values of [phase]'s color while
   co-resident with the section, so the next phase may overwrite the
   border freely.  Returns the payload size and the operation that
   installs the values in the neighbor's ghost column: one invocation per
   phase, edge as payload. *)
let edge_push s ~side phase =
  let color = phase_color phase in
  let local_col = match side with `Left -> 1 | `Right -> s.ncols in
  let gc = s.col0 + local_col - 1 in
  let vals = ref [] in
  for r = s.rows downto 1 do
    match (Sor_core.color_of ~r ~c:gc, color) with
    | Sor_core.Red, Sor_core.Red | Sor_core.Black, Sor_core.Black ->
      vals := (r, s.cells.((r * s.stride) + local_col)) :: !vals
    | Sor_core.Red, Sor_core.Black | Sor_core.Black, Sor_core.Red -> ()
  done;
  let vals = !vals in
  let install ns =
    let ghost_col = match side with `Left -> ns.ncols + 1 | `Right -> 0 in
    List.iter (fun (r, v) -> ns.cells.((r * ns.stride) + ghost_col) <- v) vals;
    (match side with
    | `Left -> ns.recv_right <- max ns.recv_right phase
    | `Right -> ns.recv_left <- max ns.recv_left phase);
    let ws = ns.waiters in
    ns.waiters <- [];
    List.iter (fun wake -> wake ()) ws
  in
  (8 * List.length vals, install)

(* --- partitioning -------------------------------------------------------- *)

let make_section (p : Sor_core.params) ~idx ~ncols ~col0 ~is_first ~is_last =
  let stride = ncols + 2 in
  let cells = Array.make ((p.Sor_core.rows + 2) * stride) 0.0 in
  (* Boundary ring: top/bottom rows, and the global left/right edges for
     the outermost sections.  Interior ghosts start at the initial value
     (0), matching the neighbors' initial interiors. *)
  for c = 0 to ncols + 1 do
    cells.(c) <- p.Sor_core.top;
    cells.(((p.Sor_core.rows + 1) * stride) + c) <- p.Sor_core.bottom
  done;
  if is_first then
    for r = 1 to p.Sor_core.rows do
      cells.(r * stride) <- p.Sor_core.left
    done;
  if is_last then
    for r = 1 to p.Sor_core.rows do
      cells.((r * stride) + ncols + 1) <- p.Sor_core.right
    done;
  {
    idx;
    rows = p.Sor_core.rows;
    ncols;
    col0;
    stride;
    cells;
    comp_phase = 0;
    push_phase = 0;
    interior_release = 0;
    border_done = 0;
    workers_done = 0;
    pushes_done = 0;
    recv_left = 0;
    recv_right = 0;
    delta = 0.0;
    stop = false;
    waiters = [];
  }

(* Create the master object [<prefix>-master] and the column sections
   [<prefix>-section<i>], all on the calling node.  Returns the master's
   state, the master and the sections. *)
let create rt (p : Sor_core.params) ~prefix ~sections =
  if sections <= 0 || sections > p.Sor_core.cols then
    invalid_arg "Sor_section.create: bad section count";
  let master_state =
    {
      parties = sections;
      arrived = 0;
      agg = 0.0;
      waiting = [];
      rounds = 0;
      t_ready = 0.0;
      t_last = 0.0;
    }
  in
  let master_obj =
    A.Runtime.create_object rt ~size:128 ~name:(prefix ^ "-master")
      master_state
  in
  (* Column partitioning: spread the remainder over the first sections. *)
  let base = p.Sor_core.cols / sections in
  let rem = p.Sor_core.cols mod sections in
  let widths = Array.init sections (fun i -> base + if i < rem then 1 else 0) in
  let sec_objs =
    Array.init sections (fun i ->
        let col0 = 1 + Array.fold_left ( + ) 0 (Array.sub widths 0 i) in
        let state =
          make_section p ~idx:i ~ncols:widths.(i) ~col0 ~is_first:(i = 0)
            ~is_last:(i = sections - 1)
        in
        let size = 8 * Array.length state.cells in
        A.Runtime.create_object rt ~size
          ~name:(Printf.sprintf "%s-section%d" prefix i)
          state)
  in
  (master_state, master_obj, sec_objs)

(* Each section's node: [placement], or blocked over the cluster. *)
let destinations rt ~sections placement =
  let nodes = A.Runtime.nodes rt in
  let place =
    match placement with Some f -> f | None -> fun i -> i * nodes / sections
  in
  Array.init sections (fun i ->
      let dest = place i in
      if dest < 0 || dest >= nodes then
        invalid_arg "Sor_section.destinations: placement outside the cluster";
      dest)

(* Assemble the global interior in row-major order so the checksum is
   bit-identical to the sequential implementation's. *)
let checksum (p : Sor_core.params) sec_objs =
  let checksum = ref 0.0 in
  for r = 1 to p.Sor_core.rows do
    Array.iter
      (fun obj ->
        let s = obj.A.Aobject.state in
        for lc = 1 to s.ncols do
          checksum := !checksum +. s.cells.((r * s.stride) + lc)
        done)
      sec_objs
  done;
  !checksum
