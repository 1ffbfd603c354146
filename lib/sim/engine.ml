type event = {
  id : int;
      (* the event's queue seq, drawn when the event is created: unique,
         and in creation order *)
  time : float;
      (* nominal timestamp.  Under a chooser an event may fire "late"
         (after the clock has been advanced past it by another branch of
         the exploration); the clock never moves backwards. *)
  key : string;
  label : string;
  mutable live : bool;
      (* cleared when the event fires or is cancelled; a dead heap entry
         is skipped when it reaches the top *)
  thunk : unit -> unit;
}

type event_id = event

let no_event =
  { id = -1; time = Float.infinity; key = ""; label = ""; live = false;
    thunk = ignore }

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
}

let create ?(seed = 0x5EEDL) () =
  {
    queue = Event_queue.create ();
    clock = 0.0;
    executed = 0;
    root_rng = Rng.make seed;
    chooser = None;
    on_chooser = [];
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

let reserve t ?(key = "") ?(label = "") ~time thunk =
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

(* Chooser-driven step: any pending event may fire next, not just the
   earliest — the chooser explores relative orderings of deliveries and
   timers that the timestamps of one particular run would fix.  Fired
   events are marked dead in place and left in the heap, like cancelled
   ones; once they make up more than half of it, the heap is compacted. *)
let checked_step (c : Choice.t) t =
  let live =
    Event_queue.fold t.queue ~init:[] ~f:(fun acc _ ev ->
        if ev.live then ev :: acc else acc)
  in
  if 2 * List.length live < Event_queue.length t.queue then
    Event_queue.filter t.queue (fun ev -> ev.live);
  let evs =
    List.sort
      (fun a b ->
        match Float.compare a.time b.time with
        | 0 -> Int.compare a.id b.id
        | n -> n)
      live
  in
  match evs with
  | [] -> false
  | [ ev ] ->
    fire t ev;
    true
  | evs ->
    let arr = Array.of_list evs in
    let cands =
      Array.map
        (fun ev ->
          Choice.candidate ~key:ev.key
            ~label:
              (if ev.label = "" then Printf.sprintf "ev%d" ev.id else ev.label)
            ~dom:Choice.Event
            ~ident:(Printf.sprintf "e%d" ev.id)
            ())
        arr
    in
    let idx = c.Choice.pick Choice.Event cands in
    fire t arr.(idx);
    true

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
    (* The horizon is checked against the heap's top entry, live or not:
       a dead top entry lets the next live event run even if it lies past
       [u]. *)
    while
      (not (Event_queue.is_empty t.queue))
      && Event_queue.min_time t.queue <= u
      && step t
    do
      ()
    done;
    if u > t.clock && Float.is_finite u then t.clock <- u);
  t.executed - start

let events_executed t = t.executed
let pending t = Event_queue.length t.queue
