(* Controlled nondeterminism: every scheduling decision the simulator
   makes — which pending event fires next, which ready fiber a machine
   dispatches, whether the medium misbehaves on a given packet — is a
   *choice point*.  In normal operation there is exactly one answer
   (earliest event by [(time, seq)], FIFO fiber order, the seeded fault
   dice), so no chooser is consulted and the seam costs one branch.
   When a chooser is installed (see {!Modelcheck} in the analysis
   library) the same decision points are put to it instead, which turns
   the deterministic simulator into a systematic schedule explorer. *)

type domain = Event | Fiber | Fault

let domain_name = function
  | Event -> "event"
  | Fiber -> "fiber"
  | Fault -> "fault"

let domain_of_name = function
  | "event" -> Some Event
  | "fiber" -> Some Fiber
  | "fault" -> Some Fault
  | _ -> None

(* Conflict keys name the protocol state a decision touches.  They are
   plain ints — a namespace tag in the low four bits, the subject (node,
   address, tid, id) above it — so building, comparing and storing one
   allocates nothing; [to_string] renders the readable form only for
   schedule files. *)
module Key = struct
  type t = int

  let none = 0
  let make tag x = (x lsl 4) lor tag
  let net n = make 1 n
  let node m = make 2 m
  let obj addr = make 3 addr
  let lock addr = make 4 addr
  let tcb tid = make 5 tid
  let fut id = make 6 id
  let cond token = make 7 token
  let rpc_dedup = make 8 0
  let rpc_calls = make 8 1

  let to_string k =
    let x = k asr 4 in
    match k land 15 with
    | 0 -> ""
    | 1 -> Printf.sprintf "net:n%d" x
    | 2 -> Printf.sprintf "node:%d" x
    | 3 -> Printf.sprintf "obj:%d" x
    | 4 -> Printf.sprintf "lock:%d" x
    | 5 -> Printf.sprintf "tcb:%d" x
    | 6 -> Printf.sprintf "fut:%d" x
    | 7 -> Printf.sprintf "cond:%d" x
    | 8 when x = 0 -> "rpc:dedup"
    | 8 -> "rpc:calls"
    | _ -> invalid_arg "Choice.Key.to_string"
end

(* Candidate identities, as ints tagged with their domain in the low two
   bits: an event's seq, a fiber's tid, or a packet fate.  A fate (verb,
   kind, src, dst, seq) is interned in a process-wide table, so two fates
   get the same ident exactly when they name the same verb on the same
   packet — in any run. *)
module Ident = struct
  type t = int

  let event seq = seq lsl 2
  let fiber tid = (tid lsl 2) lor 1
  let verbs = [| "deliver"; "drop"; "dup" |]

  let fates = Hashtbl.create 64
  let fate_of_ident = Hashtbl.create 64

  let fate ~verb ~kind ~src ~dst ~seq =
    let f = (verb, kind, src, dst, seq) in
    let i =
      match Hashtbl.find_opt fates f with
      | Some i -> i
      | None ->
        let i = Hashtbl.length fates in
        Hashtbl.add fates f i;
        Hashtbl.add fate_of_ident i f;
        i
    in
    (i lsl 2) lor 2

  let to_string id =
    let x = id asr 2 in
    match id land 3 with
    | 0 -> Printf.sprintf "e%d" x
    | 1 -> Printf.sprintf "t%d" x
    | _ ->
      let verb, kind, src, dst, seq = Hashtbl.find fate_of_ident x in
      Printf.sprintf "%s:%s:%d>%d:%d" verbs.(verb) kind src dst seq
end

type candidate = {
  dom : domain;
  ident : Ident.t;
      (* stable identity of the alternative within its decision state:
         event ids, fiber tids and fault verbs replay identically along a
         common prefix, so a chooser can recognise an alternative it has
         deferred (sleep sets) across runs *)
  key : Key.t;
      (* static conflict key — which protocol state the alternative
         touches a priori.  [Key.none] means unknown: conservative
         choosers must treat it as conflicting with everything *)
  label : unit -> string;
      (* human-readable, for schedule files and logs; rendered only when
         one is written *)
}

type t = {
  pick : domain -> candidate array -> int;
      (* called only with >= 2 candidates; must return a valid index *)
  faults : bool;
      (* offer drop/dup alternatives at fault choice points; when false
         the medium always delivers *)
  note_access : Key.t -> unit;
      (* dynamic conflict vocabulary: the runtime reports which objects,
         locks, descriptors and futures the currently-executing decision
         touched (the AmberSan happens-before vocabulary), so the
         explorer can compute commutativity from observed behaviour
         rather than from static keys alone *)
}

let no_label () = ""
