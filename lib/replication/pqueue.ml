(* A 4-ary heap over heap positions [0, size). Position [i] holds its
   key in [keys.(i)], its insertion stamp in [stamps.(i)] and the slot of
   its value in [slots.(i)]; the value itself stays in [values.(slot)]
   from push to pop. Positions [size, capacity) hold the free slots, so
   [slots] is always a permutation of [0, capacity). Sifting moves floats
   and ints only. *)
type 'a t = {
  mutable keys : float array;
  mutable stamps : int array;
  mutable slots : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_stamp : int;
}

let create () =
  { keys = [||]; stamps = [||]; slots = [||]; values = [||]; size = 0; next_stamp = 0 }

let is_empty t = t.size = 0
let size t = t.size

let fresh_stamp t =
  let s = t.next_stamp in
  t.next_stamp <- s + 1;
  s

(* Room for one more entry; [v] fills the new value slots. *)
let grow t v =
  let cap = Array.length t.keys in
  if t.size = cap then begin
    let cap' = max 16 (2 * cap) in
    let extend a fill =
      let b = Array.make cap' fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.keys <- extend t.keys 0.0;
    t.stamps <- extend t.stamps 0;
    t.slots <- Array.init cap' (fun i -> if i < cap then t.slots.(i) else i);
    t.values <- extend t.values v
  end

(* Both sifts are loops over the flat arrays, not recursions, so no key
   is boxed on the way down or up.

   Fill the hole at [i] with [(k, s, slot)], moving parents down while
   the entry comes before them: by key, then insertion stamp. *)
let sift_up t i k s slot =
  let keys = t.keys and stamps = t.stamps and slots = t.slots in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 4 in
    let kp = keys.(p) in
    if k < kp || (k = kp && s < stamps.(p)) then begin
      keys.(!i) <- kp;
      stamps.(!i) <- stamps.(p);
      slots.(!i) <- slots.(p);
      i := p
    end
    else continue := false
  done;
  keys.(!i) <- k;
  stamps.(!i) <- s;
  slots.(!i) <- slot

(* Fill the hole at [i] with [(k, s, slot)], moving the smallest child
   up while it comes before the entry. Stamps are read on ties only. *)
let sift_down t i k s slot =
  let keys = t.keys and stamps = t.stamps and slots = t.slots and size = t.size in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let c = (4 * !i) + 1 in
    if c >= size then continue := false
    else begin
      let m = ref c and km = ref keys.(c) in
      for j = c + 1 to min (c + 3) (size - 1) do
        let kj = keys.(j) in
        if kj < !km || (kj = !km && stamps.(j) < stamps.(!m)) then begin
          m := j;
          km := kj
        end
      done;
      let m = !m and km = !km in
      if k < km || (k = km && s < stamps.(m)) then continue := false
      else begin
        keys.(!i) <- km;
        stamps.(!i) <- stamps.(m);
        slots.(!i) <- slots.(m);
        i := m
      end
    end
  done;
  keys.(!i) <- k;
  stamps.(!i) <- s;
  slots.(!i) <- slot

let push t key value =
  grow t value;
  let i = t.size in
  let slot = t.slots.(i) in
  t.values.(slot) <- value;
  t.size <- i + 1;
  sift_up t i key (fresh_stamp t) slot

let pop t =
  if t.size = 0 then None
  else begin
    let key = t.keys.(0) and slot = t.slots.(0) in
    let value = t.values.(slot) in
    let last = t.size - 1 in
    t.size <- last;
    if last > 0 then begin
      let k = t.keys.(last) and s = t.stamps.(last) and sl = t.slots.(last) in
      t.slots.(last) <- slot;
      sift_down t 0 k s sl
    end;
    Some (key, value)
  end

let min t = if t.size = 0 then None else Some (t.keys.(0), t.values.(t.slots.(0)))

let replace_min t key value =
  if t.size = 0 then push t key value
  else begin
    let slot = t.slots.(0) in
    t.values.(slot) <- value;
    sift_down t 0 key (fresh_stamp t) slot
  end

let peek_key t = if t.size = 0 then None else Some t.keys.(0)
