module Counters = Ltree_metrics.Counters
module Column = Ltree_core.Column

(* Monomorphic comparison prelude (lint rule R2). *)
let ( <> ) : int -> int -> bool = Stdlib.( <> )
let ( < ) : int -> int -> bool = Stdlib.( < )
let ( <= ) : int -> int -> bool = Stdlib.( <= )
let ( >= ) : int -> int -> bool = Stdlib.( >= )
let max : int -> int -> int = Stdlib.max

(* Exact LRU over [capacity] preallocated frames (see pager.mli).
   [f_prev]/[f_next] thread the frames from [head] (most recent) to
   [tail] (next victim), -1 terminated; [frame_of.(table)] maps a page
   to its frame, -1 when not resident.  Frames are only released all at
   once, by [flush], so the occupied ones are always [0, resident_count):
   a miss below capacity takes frame [resident_count], and the flushes
   walk just those. *)
type t = {
  capacity : int;
  counters : Counters.t;
  mutable frame_of : Column.t array;
  f_table : int array;
  f_page : int array;
  f_prev : int array;
  f_next : int array;
  f_dirty : bool array;
  mutable head : int;
  mutable tail : int;
  mutable resident_count : int;
  mutable dirty_count : int;
  mutable next_table : int;
}

let create ?(capacity = 64) counters =
  if capacity < 1 then invalid_arg "Pager.create: capacity must be >= 1";
  { capacity; counters; frame_of = [||];
    f_table = Array.make capacity (-1); f_page = Array.make capacity (-1);
    f_prev = Array.make capacity (-1); f_next = Array.make capacity (-1);
    f_dirty = Array.make capacity false;
    head = -1; tail = -1;
    resident_count = 0; dirty_count = 0; next_table = 0 }

let counters t = t.counters

(* Make [frame_of.(table)] exist and cover [page].  Growth only — the
   columns keep their buffers for the pager's lifetime, so steady-state
   touches never come here. *)
let[@ltree.cold] grow t ~table ~page =
  let n = Array.length t.frame_of in
  if table >= n then begin
    let nn = max (table + 1) (max 4 (2 * n)) in
    t.frame_of <-
      Array.init nn (fun i ->
          if i < n then t.frame_of.(i) else Column.create ~capacity:16 ())
  end;
  let c = t.frame_of.(table) in
  while Column.length c <= page do
    Column.push c (-1)
  done

let unlink t f =
  let p = t.f_prev.(f) and n = t.f_next.(f) in
  if p >= 0 then t.f_next.(p) <- n else t.head <- n;
  if n >= 0 then t.f_prev.(n) <- p else t.tail <- p

let push_head t f =
  t.f_prev.(f) <- -1;
  t.f_next.(f) <- t.head;
  if t.head >= 0 then t.f_prev.(t.head) <- f else t.tail <- f;
  t.head <- f

let write_back t f =
  if t.f_dirty.(f) then begin
    Counters.add_page_write t.counters 1;
    t.f_dirty.(f) <- false;
    t.dirty_count <- t.dirty_count - 1
  end

let evict_tail t =
  let f = t.tail in
  write_back t f;
  Column.set t.frame_of.(t.f_table.(f)) t.f_page.(f) (-1);
  unlink t f;
  f

(* Residency miss: count the read, take a free frame (the evicted tail
   at capacity), admit as most recent. *)
let touch_miss t ~table ~page =
  Counters.add_page_read t.counters 1;
  let f =
    if t.resident_count < t.capacity then begin
      let f = t.resident_count in
      t.resident_count <- f + 1;
      f
    end
    else evict_tail t
  in
  t.f_table.(f) <- table;
  t.f_page.(f) <- page;
  Column.set t.frame_of.(table) page f;
  push_head t f

(* Read-only touch, no optional argument: the optional default would
   compile to an inner closure, which the R9 audit of hot callers (row
   fetches on the query emit path) rightly rejects. *)
let[@ltree.hot] touch_read t ~table ~page =
  if
    table >= Array.length t.frame_of
    || page >= Column.length (Array.unsafe_get t.frame_of table)
  then (grow t ~table ~page [@ltree.cold]);
  let f = Column.get (Array.unsafe_get t.frame_of table) page in
  if f < 0 then touch_miss t ~table ~page
  else if f <> t.head then begin
    unlink t f;
    push_head t f
  end

(* [touch_read] leaves the touched page's frame at the head. *)
let touch ?(write = false) t ~table ~page =
  touch_read t ~table ~page;
  if write && not t.f_dirty.(t.head) then begin
    t.f_dirty.(t.head) <- true;
    t.dirty_count <- t.dirty_count + 1
  end

(* Every write-back — eviction or flush — goes through [write_back], so
   a page's dirty bit is consumed exactly once and the page_write count
   is the same whether the page left the pool by eviction or by flush. *)
let flush_pages =
  Ltree_obs.Registry.histogram ~name:"pager_flush_pages"
    ~help:"Dirty pages written back per pager flush"
    ~bounds:(Ltree_obs.Histogram.log2_bounds ~start:1. ~count:12)
    ()

let flush_dirty t =
  Ltree_obs.Span.with_ ~name:"pager.flush" ~counters:t.counters (fun () ->
      let written = t.dirty_count in
      for f = 0 to t.resident_count - 1 do
        write_back t f
      done;
      Ltree_obs.Histogram.observe_int flush_pages written;
      written)

let flush t =
  ignore (flush_dirty t);
  for f = 0 to t.resident_count - 1 do
    Column.set t.frame_of.(t.f_table.(f)) t.f_page.(f) (-1)
  done;
  t.head <- -1;
  t.tail <- -1;
  t.resident_count <- 0

let dirty t = t.dirty_count

let fresh_table_id t =
  let id = t.next_table in
  t.next_table <- id + 1;
  id

let resident t = t.resident_count
