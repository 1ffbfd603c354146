(** The Amber Red/Black SOR program — the paper's §6 application, with the
    Figure-1 structure:

    - the grid is split column-wise into section objects distributed over
      the nodes;
    - each section has a coordinator thread, a set of interior-compute
      worker threads, and one edge-push thread per neighbor;
    - edge values travel as the payload of an invocation on the neighbor
      section ("the values for an entire edge of a section transferred in
      a single invocation");
    - with [overlap] on, edge exchange runs concurrently with the interior
      computation of the same color phase (the paper's key optimization);
    - after each iteration, all sections synchronize through a master
      object to combine convergence information.

    All intra-section coordination is direct shared-memory signalling —
    the threads are bound to the section object and therefore co-resident
    (§3.6's co-residency guarantee), so only cheap hardware-level
    synchronization is charged.  The section engine is {!Sor_section},
    shared with {!Sor_pipe}. *)

type cfg = {
  sections : int;
  overlap : bool;
  workers_per_section : int;  (** interior-compute threads per section *)
  placement : (int -> int) option;
      (** section index → node; [None] = blocked placement *)
}

(** Paper-style defaults for a given runtime: 8 sections (6 when the node
    count is 3 or 6), blocked placement, overlap on, and enough workers to
    fill every CPU. *)
val default_cfg : Amber.Runtime.t -> cfg

type result = {
  iterations : int;
  checksum : float;
  compute_elapsed : float;
      (** from the post-setup ready barrier to the final barrier *)
  total_elapsed : float;  (** including object creation and distribution *)
  remote_invocations : int;
  thread_migrations : int;
}

(** Run exactly [iters] iterations.  Must be called from the program's
    main Amber thread. *)
val run :
  Amber.Runtime.t -> Sor_core.params -> ?cfg:cfg -> iters:int -> unit -> result

(** Run until the global per-iteration maximum change drops below [eps]
    (combined at the master barrier, as in the paper) or [max_iters] is
    reached.  [result.iterations] reports how many iterations ran. *)
val run_to_convergence :
  Amber.Runtime.t ->
  Sor_core.params ->
  ?cfg:cfg ->
  eps:float ->
  max_iters:int ->
  unit ->
  result
