type t =
  | True
  | False
  | Eq of Expr.t * Expr.t
  | Ne of Expr.t * Expr.t
  | Lt of Expr.t * Expr.t
  | Le of Expr.t * Expr.t
  | Gt of Expr.t * Expr.t
  | Ge of Expr.t * Expr.t
  | Not of t
  | And of t * t
  | Or of t * t

let rec eval ~param ~read p =
  let e = Expr.eval ~param ~read in
  match p with
  | True -> true
  | False -> false
  | Eq (a, b) -> e a = e b
  | Ne (a, b) -> e a <> e b
  | Lt (a, b) -> e a < e b
  | Le (a, b) -> e a <= e b
  | Gt (a, b) -> e a > e b
  | Ge (a, b) -> e a >= e b
  | Not q -> not (eval ~param ~read q)
  | And (a, b) -> eval ~param ~read a && eval ~param ~read b
  | Or (a, b) -> eval ~param ~read a || eval ~param ~read b

let rec add_items p acc =
  match p with
  | True | False -> acc
  | Eq (a, b) | Ne (a, b) | Lt (a, b) | Le (a, b) | Gt (a, b) | Ge (a, b) ->
    Expr.add_items b (Expr.add_items a acc)
  | Not q -> add_items q acc
  | And (a, b) | Or (a, b) -> add_items b (add_items a acc)

let items p = add_items p Item.Set.empty

let rec params = function
  | True | False -> []
  | Eq (a, b) | Ne (a, b) | Lt (a, b) | Le (a, b) | Gt (a, b) | Ge (a, b) ->
    Expr.params a @ Expr.params b
  | Not q -> params q
  | And (a, b) | Or (a, b) -> params a @ params b

let rec pp ppf = function
  | True -> Format.fprintf ppf "true"
  | False -> Format.fprintf ppf "false"
  | Eq (a, b) -> Format.fprintf ppf "%a = %a" Expr.pp a Expr.pp b
  | Ne (a, b) -> Format.fprintf ppf "%a <> %a" Expr.pp a Expr.pp b
  | Lt (a, b) -> Format.fprintf ppf "%a < %a" Expr.pp a Expr.pp b
  | Le (a, b) -> Format.fprintf ppf "%a <= %a" Expr.pp a Expr.pp b
  | Gt (a, b) -> Format.fprintf ppf "%a > %a" Expr.pp a Expr.pp b
  | Ge (a, b) -> Format.fprintf ppf "%a >= %a" Expr.pp a Expr.pp b
  | Not q -> Format.fprintf ppf "not (%a)" pp q
  | And (a, b) -> Format.fprintf ppf "(%a and %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a or %a)" pp a pp b
