(* A FliT descriptor that forwards every call to the transformation it
   wraps and counts it.  Counting adds no scheduling point, no fabric
   traffic and no random draw, so a run through the wrapper is cycle for
   cycle the run it wraps (the benchmark checks this).

   Calls are booked by calling fibre: the first fibre to use an instance
   is its creator — in Kv.serve the init fibre that builds the shards and
   preloads the keyspace — and its calls count as [preload]; every other
   fibre's calls count as [serving].

   Each fibre's calls are also cut into operations at [complete_op],
   which every Dstruct operation calls last.  An operation with shared
   loads but no shared store or CAS is read-only; for the hash map that
   is a lookup, and its load count is the chain walk.

   [on_call] runs before every call; the traced pass uses it to read the
   tracer's ring before it wraps. *)

type counts = {
  mutable shared_loads : int;
  mutable shared_stores : int;
  mutable cas : int;
  mutable private_ops : int;
}

type t = {
  preload : counts;
  serving : counts;
  mutable read_ops : int;       (** read-only operations (serving fibres) *)
  mutable read_op_loads : int;  (** shared loads inside them *)
}

let counts () = { shared_loads = 0; shared_stores = 0; cas = 0; private_ops = 0 }

let create () =
  { preload = counts (); serving = counts (); read_ops = 0; read_op_loads = 0 }

type segment = { mutable loads : int; mutable writes : bool }

let wrap ?(on_call = ignore) (c : t) (inner : Flit.Flit_intf.t) :
    Flit.Flit_intf.t =
  let create fab =
    let i = inner.Flit.Flit_intf.create fab in
    let creator = ref (-1) in
    let segments : (int, segment) Hashtbl.t = Hashtbl.create 16 in
    let book (ctx : Runtime.Sched.ctx) =
      on_call ();
      let tid = ctx.Runtime.Sched.tid in
      if !creator < 0 then creator := tid;
      if tid = !creator then c.preload else c.serving
    in
    let segment (ctx : Runtime.Sched.ctx) =
      let tid = ctx.Runtime.Sched.tid in
      match Hashtbl.find_opt segments tid with
      | Some s -> s
      | None ->
          let s = { loads = 0; writes = false } in
          Hashtbl.replace segments tid s;
          s
    in
    {
      i with
      Flit.Flit_intf.private_load =
        (fun ctx loc ->
          let k = book ctx in
          k.private_ops <- k.private_ops + 1;
          i.Flit.Flit_intf.private_load ctx loc);
      private_store =
        (fun ctx loc v ~pflag ->
          let k = book ctx in
          k.private_ops <- k.private_ops + 1;
          i.Flit.Flit_intf.private_store ctx loc v ~pflag);
      shared_load =
        (fun ctx loc ~pflag ->
          let k = book ctx in
          k.shared_loads <- k.shared_loads + 1;
          let s = segment ctx in
          s.loads <- s.loads + 1;
          i.Flit.Flit_intf.shared_load ctx loc ~pflag);
      shared_store =
        (fun ctx loc v ~pflag ->
          let k = book ctx in
          k.shared_stores <- k.shared_stores + 1;
          (segment ctx).writes <- true;
          i.Flit.Flit_intf.shared_store ctx loc v ~pflag);
      shared_cas =
        (fun ctx loc ~expected ~desired ~pflag ->
          let k = book ctx in
          k.cas <- k.cas + 1;
          (segment ctx).writes <- true;
          i.Flit.Flit_intf.shared_cas ctx loc ~expected ~desired ~pflag);
      complete_op =
        (fun ctx ->
          let s = segment ctx in
          if ctx.Runtime.Sched.tid <> !creator && s.loads > 0 && not s.writes
          then begin
            c.read_ops <- c.read_ops + 1;
            c.read_op_loads <- c.read_op_loads + s.loads
          end;
          s.loads <- 0;
          s.writes <- false;
          i.Flit.Flit_intf.complete_op ctx);
    }
  in
  { inner with Flit.Flit_intf.create }
