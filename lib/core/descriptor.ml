type state = Resident | Forwarded of int | Replica of int

type table = {
  node_id : int;
  entries : (int, state) Hashtbl.t;
  mutable uninit_reads : int;
}

(* Tables start small and grow with use: every node boots one, so a
   256-bucket start was a large share of what booting a cluster
   allocated.  The table is never iterated, so its size changes nothing
   but memory. *)
let create_table ~node =
  { node_id = node; entries = Hashtbl.create 16; uninit_reads = 0 }

let node t = t.node_id

let get t addr =
  match Hashtbl.find_opt t.entries addr with
  | Some s -> Some s
  | None ->
    t.uninit_reads <- t.uninit_reads + 1;
    None

let set_resident t addr = Hashtbl.replace t.entries addr Resident
let set_forwarded t addr n = Hashtbl.replace t.entries addr (Forwarded n)
let set_replica t addr master = Hashtbl.replace t.entries addr (Replica master)
let clear t addr = Hashtbl.remove t.entries addr

let is_resident t addr =
  match Hashtbl.find_opt t.entries addr with
  | Some Resident -> true
  | Some (Forwarded _ | Replica _) | None -> false

let is_replica t addr =
  match Hashtbl.find_opt t.entries addr with
  | Some (Replica _) -> true
  | Some (Resident | Forwarded _) | None -> false

let entries t = Hashtbl.length t.entries
let uninitialized_reads t = t.uninit_reads
