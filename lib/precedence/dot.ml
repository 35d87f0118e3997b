open Repro_history

let render ?(removed = Names.Set.empty) pg =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph precedence {\n  rankdir=LR;\n";
  Array.iter
    (fun (s : Summary.t) ->
      let shape = if Summary.is_tentative s then "ellipse" else "box" in
      let extra =
        if Names.Set.mem s.Summary.name removed then
          ", style=\"filled,dashed\", fillcolor=lightgrey"
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s [shape=%s%s];\n" s.Summary.name shape extra))
    (Precedence.summaries pg);
  List.iter
    (fun (u, v) ->
      let name i = (Precedence.summary_of_node pg i).Summary.name in
      Buffer.add_string buf (Printf.sprintf "  %s -> %s;\n" (name u) (name v)))
    (Precedence.edges pg);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
