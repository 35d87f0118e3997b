(* Tarjan's algorithm over successor arrays, recursive, roots in
   increasing node order. Each component is consed onto the result when
   its root finishes, with its members in the order they were pushed. *)
let components_of_arrays ?skip succ =
  let n = Array.length succ in
  let skipped = match skip with Some s -> fun v -> s.(v) | None -> fun _ -> false in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let next_index = ref 0 in
  let comps = ref [] in
  let rec strongconnect v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack := v :: !stack;
    on_stack.(v) <- true;
    Array.iter
      (fun w ->
        if not (skipped w) then
          if index.(w) < 0 then begin
            strongconnect w;
            lowlink.(v) <- min lowlink.(v) lowlink.(w)
          end
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      succ.(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
      in
      comps := pop [] :: !comps
    end
  in
  for v = 0 to n - 1 do
    if (not (skipped v)) && index.(v) < 0 then strongconnect v
  done;
  !comps
