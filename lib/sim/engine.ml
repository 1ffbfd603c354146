type event = {
  id : int;
      (* the event's queue seq, drawn when the event is created: unique,
         and in creation order *)
  time : float;
      (* nominal timestamp.  Under a chooser an event may fire "late"
         (after the clock has been advanced past it by another branch of
         the exploration); the clock never moves backwards. *)
  key : Choice.Key.t;
  label : unit -> string;
  mutable live : bool;
      (* cleared when the event fires or is cancelled; a dead heap entry
         is skipped when it reaches the top *)
  thunk : unit -> unit;
}

type event_id = event

let no_event =
  { id = -1; time = Float.infinity; key = Choice.Key.none;
    label = Choice.no_label; live = false; thunk = ignore }

type t = {
  queue : event Event_queue.t;
  mutable clock : float;
  mutable executed : int;
  root_rng : Rng.t;
  (* Controlled nondeterminism (see {!Choice}): [None] in normal
     operation — every decision point takes its single normal answer and
     this field costs one dead branch per step. *)
  mutable chooser : Choice.t option;
  (* Hooks run as a chooser is installed (see [on_set_chooser]). *)
  mutable on_chooser : (unit -> unit) list;
  (* [checked_step]'s scratch buffer for the live events, reused from
     one decision to the next. *)
  mutable live_buf : event array;
}

let create ?(seed = 0x5EEDL) () =
  {
    queue = Event_queue.create ();
    clock = 0.0;
    executed = 0;
    root_rng = Rng.make seed;
    chooser = None;
    on_chooser = [];
    live_buf = [||];
  }

let now t = t.clock
let rng t = t.root_rng

let set_chooser t c =
  if c <> None then List.iter (fun f -> f ()) t.on_chooser;
  t.chooser <- c

let on_set_chooser t f = t.on_chooser <- f :: t.on_chooser
let chooser t = t.chooser
let chooser_active t = t.chooser <> None

let note_access t k =
  match t.chooser with None -> () | Some c -> c.Choice.note_access k

let reserve t ?(key = Choice.Key.none) ?(label = Choice.no_label) ~time thunk =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time";
  let time =
    if time >= t.clock then time
    else if t.chooser <> None then
      (* A replayed schedule may have run the scheduling event later than
         its nominal timestamp; absolute-time follow-ups land "now". *)
      t.clock
    else
      invalid_arg
        (Printf.sprintf "Engine.schedule_at: time %g is before now %g" time
           t.clock)
  in
  { id = Event_queue.reserve t.queue; time; key; label; live = true; thunk }

let schedule_reserved t ev =
  if ev.time < t.clock then
    invalid_arg "Engine.schedule_reserved: event time is before now";
  Event_queue.add_reserved t.queue ~time:ev.time ~seq:ev.id ev

let schedule_at t ?key ?label ~time thunk =
  let ev = reserve t ?key ?label ~time thunk in
  schedule_reserved t ev;
  ev

let schedule t ?key ?label ~delay thunk =
  if Float.is_nan delay || delay < 0.0 then
    invalid_arg "Engine.schedule: negative or NaN delay";
  schedule_at t ?key ?label ~time:(t.clock +. delay) thunk

let cancel _ ev = ev.live <- false
let is_pending _ ev = ev.live

let fire t ev =
  if ev.time > t.clock then t.clock <- ev.time;
  ev.live <- false;
  t.executed <- t.executed + 1;
  ev.thunk ()

(* [(time, id)] order, the order [step_earliest] would fire them in. *)
let earlier a b = a.time < b.time || (a.time = b.time && a.id < b.id)

(* Chooser-driven step: any pending event may fire next, not just the
   earliest — the chooser explores relative orderings of deliveries and
   timers that the timestamps of one particular run would fix.  Fired
   events are marked dead in place and left in the heap, like cancelled
   ones; once they make up more than half of it, the heap is compacted.
   The live events are gathered into the reused [t.live_buf] and
   insertion-sorted there as they come (heap order already puts every
   parent before its children, and a chooser's live set is small); only
   the candidate array handed to the chooser is allocated. *)
let checked_step (c : Choice.t) t =
  let len = Event_queue.length t.queue in
  if Array.length t.live_buf < len then
    t.live_buf <- Array.make (2 * len) no_event;
  let buf = t.live_buf in
  let n =
    Event_queue.fold t.queue ~init:0 ~f:(fun n _ ev ->
        if not ev.live then n
        else begin
          (* insert [ev] into the sorted [buf.(0 .. n-1)] *)
          let i = ref n in
          while !i > 0 && earlier ev buf.(!i - 1) do
            buf.(!i) <- buf.(!i - 1);
            decr i
          done;
          buf.(!i) <- ev;
          n + 1
        end)
  in
  if 2 * n < len then Event_queue.filter t.queue (fun ev -> ev.live);
  if n = 0 then false
  else begin
    let idx =
      if n = 1 then 0
      else
        c.Choice.pick Choice.Event
          (Array.init n (fun i ->
               let ev = buf.(i) in
               let label =
                 if ev.label != Choice.no_label then ev.label
                 else fun () -> Printf.sprintf "ev%d" ev.id
               in
               {
                 Choice.dom = Choice.Event;
                 ident = Choice.Ident.event ev.id;
                 key = ev.key;
                 label;
               }))
    in
    fire t buf.(idx);
    true
  end

let rec step_earliest t =
  if Event_queue.is_empty t.queue then false
  else
    let ev = Event_queue.take t.queue in
    if ev.live then begin
      fire t ev;
      true
    end
    else step_earliest t

let step t =
  match t.chooser with
  | Some c -> checked_step c t
  | None -> step_earliest t

let run ?until t =
  let start = t.executed in
  (match (t.chooser, until) with
  | Some _, _ | None, None ->
    (* Run to quiescence.  Under a chooser virtual timestamps no longer
       bound execution order, so a time horizon is meaningless. *)
    while step t do
      ()
    done
  | None, Some u ->
    (* Dead entries are dropped before the horizon test, so it is made
       against the next live event. *)
    let rec next_live_before_horizon () =
      match Event_queue.peek t.queue with
      | None -> false
      | Some (_, ev) when not ev.live ->
        ignore (Event_queue.take t.queue : event);
        next_live_before_horizon ()
      | Some (time, _) -> time <= u
    in
    while next_live_before_horizon () && step t do
      ()
    done;
    if u > t.clock && Float.is_finite u then t.clock <- u);
  t.executed - start

let events_executed t = t.executed
let pending t = Event_queue.length t.queue
