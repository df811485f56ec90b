(* Keys and values live in parallel arrays, so [push] and [take] allocate
   nothing once the arrays have grown to the queue's high-water mark. A
   heap slot is filled by moving the displaced element into a hole rather
   than by swaps. *)

type 'a t = {
  mutable prio : int array;
  mutable seq : int array;
  mutable vals : 'a array;
  mutable n : int;
  filler : 'a;
}

let create ~filler = { prio = [||]; seq = [||]; vals = [||]; n = 0; filler }

let is_empty q = q.n = 0

(* Slot [i]'s key against [(p, s)]. *)
let below q i p s = q.prio.(i) < p || (q.prio.(i) = p && q.seq.(i) < s)

let above q i p s = p < q.prio.(i) || (p = q.prio.(i) && s < q.seq.(i))

let grow q =
  let cap = Array.length q.vals in
  if q.n = cap then begin
    let ncap = if cap = 0 then 64 else cap * 2 in
    let resize a fill =
      let na = Array.make ncap fill in
      Array.blit a 0 na 0 q.n;
      na
    in
    q.prio <- resize q.prio 0;
    q.seq <- resize q.seq 0;
    q.vals <- resize q.vals q.filler
  end

let set q i p s v =
  q.prio.(i) <- p;
  q.seq.(i) <- s;
  q.vals.(i) <- v

let move q ~src ~dst = set q dst q.prio.(src) q.seq.(src) q.vals.(src)

(* Move the hole at [i] up until [(p, s)] fits; return where it fits. *)
let rec sift_up q i p s =
  if i = 0 then 0
  else
    let parent = (i - 1) / 2 in
    if above q parent p s then begin
      move q ~src:parent ~dst:i;
      sift_up q parent p s
    end
    else i

(* Move the hole at [i] down, among the first [n] slots, until [(p, s)]
   fits; return where it fits. *)
let rec sift_down q n i p s =
  let l = (2 * i) + 1 in
  if l >= n then i
  else
    let r = l + 1 in
    let c = if r < n && below q r q.prio.(l) q.seq.(l) then r else l in
    if below q c p s then begin
      move q ~src:c ~dst:i;
      sift_down q n c p s
    end
    else i

let push q p s v =
  grow q;
  let i = sift_up q q.n p s in
  q.n <- q.n + 1;
  set q i p s v

let min_key q =
  if q.n = 0 then invalid_arg "Pqueue.min_key: empty queue";
  q.prio.(0)

let take q =
  if q.n = 0 then invalid_arg "Pqueue.take: empty queue";
  let top = q.vals.(0) in
  q.n <- q.n - 1;
  let last = q.n in
  if last > 0 then
    move q ~src:last ~dst:(sift_down q last 0 q.prio.(last) q.seq.(last));
  (* The vacated slot must not keep its value reachable. *)
  q.vals.(last) <- q.filler;
  top
