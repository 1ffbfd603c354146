type record = {
  time : float;
  category : string;
  detail : string;
  node : int;
  cpu : int;
  tid : int;
  obj : int;
  span : int;
  parent : int;
}

type t = {
  mutable enabled : bool;
  capacity : int;
  mutable buf : record option array;  (* empty until first enabled *)
  mutable next : int;  (* next write position *)
  mutable count : int; (* total records written (monotone) *)
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity";
  { enabled = false; capacity; buf = [||]; next = 0; count = 0 }

(* The ring is allocated on first enable: most runs never trace, and a
   cluster boots a fresh trace every time. *)
let set_enabled t flag =
  if flag && Array.length t.buf = 0 then t.buf <- Array.make t.capacity None;
  t.enabled <- flag

let enabled t = t.enabled

let emit t ~time ?(node = -1) ?(cpu = -1) ?(tid = -1) ?(obj = -1) ?(span = -1)
    ?(parent = -1) ~category ~detail () =
  if t.enabled then begin
    t.buf.(t.next) <-
      Some
        {
          time;
          category;
          detail = Lazy.force detail;
          node;
          cpu;
          tid;
          obj;
          span;
          parent;
        };
    t.next <- (t.next + 1) mod t.capacity;
    t.count <- t.count + 1
  end

let records t =
  let stored = min t.count t.capacity in
  let start =
    if t.count <= t.capacity then 0 else t.next
  in
  let out = ref [] in
  for i = stored - 1 downto 0 do
    match t.buf.((start + i) mod t.capacity) with
    | Some r -> out := r :: !out
    | None -> ()
  done;
  !out

let by_category t category =
  List.filter (fun r -> String.equal r.category category) (records t)

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) None;
  t.next <- 0;
  t.count <- 0

let length t = min t.count t.capacity
let dropped t = max 0 (t.count - t.capacity)

let pp_record ppf r =
  Format.fprintf ppf "[%.6f] %-8s %s" r.time r.category r.detail;
  if r.node >= 0 || r.tid >= 0 || r.span >= 0 then begin
    Format.fprintf ppf "  (";
    let sep = ref "" in
    let field name v =
      if v >= 0 then begin
        Format.fprintf ppf "%s%s%d" !sep name v;
        sep := " "
      end
    in
    field "n" r.node;
    field "c" r.cpu;
    field "t" r.tid;
    field "o" r.obj;
    field "s" r.span;
    field "p" r.parent;
    Format.fprintf ppf ")"
  end
