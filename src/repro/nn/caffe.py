"""Caffe prototxt parsing and serialization.

The paper's tool-flow "takes Caffe configuration file ... as inputs".  This
module implements a self-contained reader/writer for the prototxt text
format (a protobuf text-format subset) sufficient for CNN topology files:
nested messages in braces, scalar ``key: value`` fields, repeated fields,
quoted strings, booleans and enums, and ``#`` comments.

Parsing happens in two stages: :func:`parse_prototxt` produces a generic
:class:`Message` tree, and a lowering pass turns it into the IR:
:func:`network_from_prototxt` produces a linear-chain
:class:`repro.nn.network.Network` (rejecting any branching), while
:func:`graph_from_prototxt` produces a DAG
:class:`repro.nn.graph.Graph`, accepting multi-``bottom``/multi-``top``
layers (``Concat``, ``Eltwise``) and resolving Caffe's named-blob
wiring, including in-place tops.  Both fold standalone ReLU layers into
their preceding convolution (as the paper's architecture does).  Every
lowering failure — unknown blob, unsupported axis/operation, a cycle in
the wiring, a non-series-parallel topology — is a single-line
:class:`~repro.errors.ParseError` carrying the offending prototxt line
and field.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ParseError, ShapeError
from repro.nn.graph import Graph, GraphNode
from repro.nn.layers import (
    ConcatLayer,
    ConvLayer,
    EltwiseLayer,
    FCLayer,
    InputSpec,
    Layer,
    LRNLayer,
    PoolLayer,
    ReLULayer,
    SoftmaxLayer,
)
from repro.nn.network import Network

Scalar = Union[str, int, float, bool]


class Message:
    """A parsed prototxt message: multimap of field name -> values.

    Every field remembers the line its first occurrence was parsed from
    (``line_of``), and the message itself remembers where it opened
    (``line``), so lowering errors can point at the offending prototxt
    line in a single-line :class:`ParseError`.
    """

    def __init__(self, line: int = 1) -> None:
        self.line = line
        self._fields: Dict[str, List[Union[Scalar, "Message"]]] = {}
        self._lines: Dict[str, int] = {}

    def add(
        self, key: str, value: Union[Scalar, "Message"], line: Optional[int] = None
    ) -> None:
        self._fields.setdefault(key, []).append(value)
        if line is not None:
            self._lines.setdefault(key, line)

    def line_of(self, key: str) -> int:
        """Line of the field's first occurrence (the message's own line
        when the field is absent)."""
        return self._lines.get(key, self.line)

    def get_all(self, key: str) -> List[Union[Scalar, "Message"]]:
        return list(self._fields.get(key, []))

    def get(self, key: str, default=None):
        values = self._fields.get(key)
        if not values:
            return default
        return values[0]

    def get_message(self, key: str) -> Optional["Message"]:
        value = self.get(key)
        if value is None:
            return None
        if not isinstance(value, Message):
            raise ParseError(
                f"line {self.line_of(key)}: field {key!r} is scalar, "
                f"expected message"
            )
        return value

    def get_int(self, key: str, default: Optional[int] = None) -> Optional[int]:
        value = self.get(key, default)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(
                f"line {self.line_of(key)}: field {key!r} is not numeric: "
                f"{value!r}"
            )
        return int(value)

    def get_float(self, key: str, default: Optional[float] = None) -> Optional[float]:
        value = self.get(key, default)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError(
                f"line {self.line_of(key)}: field {key!r} is not numeric: "
                f"{value!r}"
            )
        return float(value)

    def get_str(self, key: str, default: Optional[str] = None) -> Optional[str]:
        value = self.get(key, default)
        if value is None:
            return None
        if not isinstance(value, str):
            raise ParseError(
                f"line {self.line_of(key)}: field {key!r} is not a string: "
                f"{value!r}"
            )
        return value

    def keys(self) -> List[str]:
        return list(self._fields)

    def __contains__(self, key: str) -> bool:
        return key in self._fields

    def __repr__(self) -> str:
        return f"Message({self._fields!r})"


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<punct>[{}:])
  | (?P<atom>[^\s{}:"\#]+)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> Iterator[Tuple[str, str, int]]:
    """Yield (kind, token, line) triples, skipping whitespace and comments."""
    line = 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"line {line}: unexpected character {text[pos]!r}")
        kind = match.lastgroup
        token = match.group()
        if kind not in ("ws", "comment"):
            yield kind, token, line
        line += token.count("\n")
        pos = match.end()


_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)$")


def _parse_atom(token: str) -> Scalar:
    if token == "true":
        return True
    if token == "false":
        return False
    if _NUMBER_RE.match(token):
        if re.match(r"^[+-]?\d+$", token):
            return int(token)
        return float(token)
    # bare enum value (e.g. MAX, AVE)
    return token


class _Parser:
    def __init__(self, text: str):
        self._tokens = list(_tokenize(text))
        self._pos = 0

    def _peek(self) -> Optional[Tuple[str, str, int]]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def _next(self) -> Tuple[str, str, int]:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self._pos += 1
        return token

    def parse(self) -> Message:
        message = self._parse_fields(top_level=True, line=1)
        if self._peek() is not None:
            _, token, line = self._peek()
            raise ParseError(f"line {line}: trailing content {token!r}")
        return message

    def _parse_fields(self, top_level: bool, line: int) -> Message:
        open_line = line
        message = Message(line=open_line)
        while True:
            token = self._peek()
            if token is None:
                if top_level:
                    return message
                raise ParseError(
                    f"line {open_line}: unexpected end of input inside the "
                    f"message opened here"
                )
            kind, text, line = token
            if kind == "punct" and text == "}":
                if top_level:
                    raise ParseError(f"line {line}: unmatched '}}'")
                self._next()
                return message
            if kind != "atom":
                raise ParseError(f"line {line}: expected field name, got {text!r}")
            self._next()
            key = text
            kind2, text2, line2 = self._next()
            if kind2 == "punct" and text2 == ":":
                kind3, text3, line3 = self._next()
                if kind3 == "string":
                    value: Union[Scalar, Message] = _unquote(text3)
                elif kind3 == "atom":
                    value = _parse_atom(text3)
                elif kind3 == "punct" and text3 == "{":
                    value = self._parse_fields(top_level=False, line=line3)
                else:
                    raise ParseError(f"line {line3}: expected value, got {text3!r}")
                message.add(key, value, line=line)
            elif kind2 == "punct" and text2 == "{":
                message.add(
                    key,
                    self._parse_fields(top_level=False, line=line2),
                    line=line,
                )
            else:
                raise ParseError(f"line {line2}: expected ':' or '{{' after {key!r}")


def _unquote(token: str) -> str:
    body = token[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def parse_prototxt(text: str) -> Message:
    """Parse prototxt text into a generic :class:`Message` tree."""
    return _Parser(text).parse()


# -- lowering to Network ----------------------------------------------------


def _input_spec(root: Message) -> InputSpec:
    dims = [v for v in root.get_all("input_dim") if isinstance(v, int)]
    if not dims:
        shape_msg = root.get_message("input_shape")
        if shape_msg is not None:
            dims = [v for v in shape_msg.get_all("dim") if isinstance(v, int)]
    if not dims:
        # Input layer form: layer { type: "Input" input_param { shape { dim .. } } }
        for layer in root.get_all("layer"):
            if isinstance(layer, Message) and layer.get_str("type") == "Input":
                param = layer.get_message("input_param")
                if param is not None:
                    shape = param.get_message("shape")
                    if shape is not None:
                        dims = [v for v in shape.get_all("dim") if isinstance(v, int)]
                break
    if len(dims) == 4:
        dims = dims[1:]  # drop batch
    if len(dims) != 3:
        raise ParseError(f"could not determine input shape; dims={dims}")
    return InputSpec(*dims)


def _require_positive(param: Message, key: str, value: Optional[int], name: str):
    """Reject non-positive dimension fields with the offending line."""
    if value is not None and value <= 0:
        raise ParseError(
            f"line {param.line_of(key)}: layer {name!r} field {key!r} "
            f"must be positive, got {value}"
        )
    return value


def _lower_conv(name: str, msg: Message) -> ConvLayer:
    param = msg.get_message("convolution_param")
    if param is None:
        raise ParseError(
            f"line {msg.line}: conv layer {name!r} missing "
            f"field 'convolution_param'"
        )
    num_output = _require_positive(
        param, "num_output", param.get_int("num_output"), name
    )
    kernel = _require_positive(
        param, "kernel_size", param.get_int("kernel_size"), name
    )
    if num_output is None:
        raise ParseError(
            f"line {param.line}: conv layer {name!r} missing field 'num_output'"
        )
    if kernel is None:
        raise ParseError(
            f"line {param.line}: conv layer {name!r} missing field 'kernel_size'"
        )
    return ConvLayer(
        name=name,
        out_channels=num_output,
        kernel=kernel,
        stride=param.get_int("stride", 1),
        pad=param.get_int("pad", 0),
        groups=param.get_int("group", 1),
        relu=False,
    )


def _lower_pool(name: str, msg: Message) -> PoolLayer:
    param = msg.get_message("pooling_param")
    if param is None:
        raise ParseError(
            f"line {msg.line}: pool layer {name!r} missing "
            f"field 'pooling_param'"
        )
    kernel = _require_positive(
        param, "kernel_size", param.get_int("kernel_size"), name
    )
    if kernel is None:
        raise ParseError(
            f"line {param.line}: pool layer {name!r} missing field 'kernel_size'"
        )
    mode = param.get("pool", "MAX")
    mode_name = {"MAX": "max", "AVE": "ave", 0: "max", 1: "ave"}.get(mode)
    if mode_name is None:
        raise ParseError(
            f"line {param.line_of('pool')}: pool layer {name!r} field 'pool' "
            f"has unsupported mode {mode!r}"
        )
    return PoolLayer(
        name=name,
        kernel=kernel,
        stride=param.get_int("stride", 1),
        pad=param.get_int("pad", 0),
        mode=mode_name,
    )


def _lower_lrn(name: str, msg: Message) -> LRNLayer:
    param = msg.get_message("lrn_param")
    if param is None:
        return LRNLayer(name=name)
    return LRNLayer(
        name=name,
        local_size=param.get_int("local_size", 5),
        alpha=param.get_float("alpha", 1e-4),
        beta=param.get_float("beta", 0.75),
        k=param.get_float("k", 1.0),
    )


def _lower_fc(name: str, msg: Message) -> FCLayer:
    param = msg.get_message("inner_product_param")
    if param is None:
        raise ParseError(
            f"line {msg.line}: fc layer {name!r} missing "
            f"field 'inner_product_param'"
        )
    num_output = _require_positive(
        param, "num_output", param.get_int("num_output"), name
    )
    if num_output is None:
        raise ParseError(
            f"line {param.line}: fc layer {name!r} missing field 'num_output'"
        )
    return FCLayer(name=name, out_features=num_output, relu=False)


def network_from_prototxt(text: str, fold_relu: bool = True) -> Network:
    """Lower prototxt text to a :class:`Network`.

    Standalone ReLU layers are folded into the preceding conv/FC layer
    when ``fold_relu`` is set (the accelerator integrates ReLU into the
    convolution engines).  The bottom/top wiring must form a single linear
    chain; anything else raises :class:`ParseError`.
    """
    root = parse_prototxt(text)
    spec = _input_spec(root)
    name = root.get_str("name", "network")

    layers: List[Layer] = []
    previous_top: Optional[str] = None
    for entry in root.get_all("layer") + root.get_all("layers"):
        if not isinstance(entry, Message):
            raise ParseError(
                f"line {root.line_of('layer')}: field 'layer' must be a "
                f"message, got {entry!r}"
            )
        layer_type = entry.get_str("type")
        layer_name = entry.get_str("name")
        if layer_type is None:
            raise ParseError(
                f"line {entry.line}: layer missing field 'type'"
            )
        if layer_name is None:
            raise ParseError(
                f"line {entry.line}: layer missing field 'name'"
            )
        if layer_type in ("Input", "Data", "Dropout", "Accuracy"):
            continue
        bottoms = [b for b in entry.get_all("bottom") if isinstance(b, str)]
        tops = [t for t in entry.get_all("top") if isinstance(t, str)]
        if previous_top is not None and bottoms and bottoms[0] not in (
            previous_top,
            layers[-1].name if layers else previous_top,
        ):
            raise ParseError(
                f"line {entry.line_of('bottom')}: layer {layer_name!r} field "
                f"'bottom' value {bottoms[0]!r} breaks the linear chain "
                f"(expected {previous_top!r})"
            )
        if layer_type == "Convolution":
            layers.append(_lower_conv(layer_name, entry))
        elif layer_type == "Pooling":
            layers.append(_lower_pool(layer_name, entry))
        elif layer_type == "LRN":
            layers.append(_lower_lrn(layer_name, entry))
        elif layer_type == "InnerProduct":
            layers.append(_lower_fc(layer_name, entry))
        elif layer_type == "ReLU":
            if fold_relu and layers and isinstance(layers[-1], (ConvLayer, FCLayer)):
                layers[-1] = _set_relu(layers[-1])
            else:
                layers.append(ReLULayer(name=layer_name))
        elif layer_type == "Softmax":
            layers.append(SoftmaxLayer(name=layer_name))
        else:
            raise ParseError(
                f"line {entry.line_of('type')}: layer {layer_name!r} field "
                f"'type' has unsupported value {layer_type!r}"
            )
        if tops:
            previous_top = tops[0]
    return Network(name, spec, layers)


def _set_relu(layer: Layer) -> Layer:
    from dataclasses import replace

    return replace(layer, relu=True)


# -- lowering to Graph -------------------------------------------------------


def _input_blob_name(root: Message) -> str:
    name = root.get_str("input")
    if name is not None:
        return name
    for entry in root.get_all("layer"):
        if isinstance(entry, Message) and entry.get_str("type") == "Input":
            tops = [t for t in entry.get_all("top") if isinstance(t, str)]
            if tops:
                return tops[0]
            declared = entry.get_str("name")
            if declared is not None:
                return declared
    return "data"


def _lower_concat(name: str, msg: Message) -> ConcatLayer:
    param = msg.get_message("concat_param")
    axis = param.get_int("axis", 1) if param is not None else 1
    if axis != 1:
        where = param if param is not None else msg
        raise ParseError(
            f"line {where.line_of('axis')}: concat layer {name!r} field "
            f"'axis' must be 1 (channel concat), got {axis}"
        )
    return ConcatLayer(name=name)


_ELTWISE_OPS = {"SUM": "sum", "MAX": "max", 1: "sum", 2: "max"}


def _lower_eltwise(name: str, msg: Message) -> EltwiseLayer:
    param = msg.get_message("eltwise_param")
    op = param.get("operation", "SUM") if param is not None else "SUM"
    operation = _ELTWISE_OPS.get(op)
    if operation is None:
        where = param if param is not None else msg
        raise ParseError(
            f"line {where.line_of('operation')}: eltwise layer {name!r} "
            f"field 'operation' has unsupported value {op!r} "
            f"(supported: SUM, MAX)"
        )
    return EltwiseLayer(name=name, operation=operation)


def graph_from_prototxt(text: str, fold_relu: bool = True) -> Graph:
    """Lower prototxt text to a DAG :class:`~repro.nn.graph.Graph`.

    The branching sibling of :func:`network_from_prototxt`: ``bottom``/
    ``top`` wiring is resolved through Caffe's named blobs (in-place
    tops shadow their blob), multi-``bottom`` ``Concat`` and ``Eltwise``
    layers become join nodes, and standalone ReLU layers fold into their
    producing conv/FC when ``fold_relu`` is set.

    Raises:
        ParseError: One line with the offending prototxt line and field,
            for unknown blobs, unsupported Concat axes or Eltwise
            operations, cyclic wiring and topologies the series-parallel
            optimizer cannot decompose.
    """
    root = parse_prototxt(text)
    spec = _input_spec(root)
    name = root.get_str("name", "network")
    input_blob = _input_blob_name(root)

    nodes: List[GraphNode] = []
    node_lines: Dict[str, int] = {}
    # blob name -> producing node name (input_blob for the graph input).
    producer: Dict[str, str] = {input_blob: input_blob}
    node_by_name: Dict[str, GraphNode] = {}

    def resolve(entry: Message, layer_name: str, bottoms: List[str]) -> List[str]:
        refs = []
        for bottom in bottoms:
            ref = producer.get(bottom)
            if ref is None:
                raise ParseError(
                    f"line {entry.line_of('bottom')}: layer {layer_name!r} "
                    f"field 'bottom' references unknown blob {bottom!r}"
                )
            refs.append(ref)
        return refs

    def add_node(entry: Message, layer: Layer, inputs: List[str],
                 tops: List[str]) -> None:
        if layer.name in node_by_name:
            raise ParseError(
                f"line {entry.line_of('name')}: layer field 'name' "
                f"value {layer.name!r} is duplicated"
            )
        node = GraphNode(name=layer.name, layer=layer, inputs=tuple(inputs))
        nodes.append(node)
        node_by_name[layer.name] = node
        node_lines[layer.name] = entry.line
        for top in tops or [layer.name]:
            producer[top] = layer.name

    for entry in root.get_all("layer") + root.get_all("layers"):
        if not isinstance(entry, Message):
            raise ParseError(
                f"line {root.line_of('layer')}: field 'layer' must be a "
                f"message, got {entry!r}"
            )
        layer_type = entry.get_str("type")
        layer_name = entry.get_str("name")
        if layer_type is None:
            raise ParseError(f"line {entry.line}: layer missing field 'type'")
        if layer_name is None:
            raise ParseError(f"line {entry.line}: layer missing field 'name'")
        bottoms = [b for b in entry.get_all("bottom") if isinstance(b, str)]
        tops = [t for t in entry.get_all("top") if isinstance(t, str)]
        if layer_type in ("Input", "Data", "Accuracy"):
            continue
        if layer_type == "Dropout":
            # Inference no-op: route its top straight to its bottom.
            if bottoms:
                ref = resolve(entry, layer_name, bottoms[:1])[0]
                for top in tops or bottoms[:1]:
                    producer[top] = ref
            continue
        inputs = resolve(entry, layer_name, bottoms or [input_blob])
        if layer_type == "Convolution":
            add_node(entry, _lower_conv(layer_name, entry), inputs, tops)
        elif layer_type == "Pooling":
            add_node(entry, _lower_pool(layer_name, entry), inputs, tops)
        elif layer_type == "LRN":
            add_node(entry, _lower_lrn(layer_name, entry), inputs, tops)
        elif layer_type == "InnerProduct":
            add_node(entry, _lower_fc(layer_name, entry), inputs, tops)
        elif layer_type == "Concat":
            add_node(entry, _lower_concat(layer_name, entry), inputs, tops)
        elif layer_type == "Eltwise":
            add_node(entry, _lower_eltwise(layer_name, entry), inputs, tops)
        elif layer_type == "ReLU":
            ref = inputs[0]
            target = node_by_name.get(ref)
            if (
                fold_relu
                and target is not None
                and isinstance(target.layer, (ConvLayer, FCLayer))
                and not target.layer.relu
            ):
                folded = GraphNode(
                    name=target.name,
                    layer=_set_relu(target.layer),
                    inputs=target.inputs,
                )
                nodes[nodes.index(target)] = folded
                node_by_name[target.name] = folded
                for top in tops or bottoms[:1]:
                    producer[top] = target.name
            else:
                add_node(entry, ReLULayer(name=layer_name), inputs, tops)
        elif layer_type == "Softmax":
            add_node(entry, SoftmaxLayer(name=layer_name), inputs, tops)
        else:
            raise ParseError(
                f"line {entry.line_of('type')}: layer {layer_name!r} field "
                f"'type' has unsupported value {layer_type!r}"
            )

    def _offending_line(message: str) -> int:
        for node_name, line in node_lines.items():
            if f"'{node_name}'" in message or f"{node_name!r}" in message:
                return line
        return root.line_of("layer")

    try:
        graph = Graph(name, spec, nodes, input_name=input_blob)
        graph.decompose()
    except ShapeError as exc:
        raise ParseError(
            f"line {_offending_line(str(exc))}: field 'layer': {exc}"
        ) from None
    return graph


def model_from_prototxt(text: str, fold_relu: bool = True):
    """Lower prototxt to the thinnest IR that fits its topology.

    Returns a chain :class:`Network` when the wiring is linear (through
    :func:`network_from_prototxt`, so chain models stay bit-identical to
    the historical parser) and a :class:`~repro.nn.graph.Graph`
    otherwise.
    """
    graph = graph_from_prototxt(text, fold_relu=fold_relu)
    if graph.is_chain:
        return network_from_prototxt(text, fold_relu=fold_relu)
    return graph


# -- serialization ----------------------------------------------------------


def _conv_block(layer: ConvLayer, bottom: str) -> str:
    lines = [
        "layer {",
        f'  name: "{layer.name}"',
        '  type: "Convolution"',
        f'  bottom: "{bottom}"',
        f'  top: "{layer.name}"',
        "  convolution_param {",
        f"    num_output: {layer.out_channels}",
        f"    kernel_size: {layer.kernel}",
        f"    stride: {layer.stride}",
        f"    pad: {layer.pad}",
    ]
    if layer.groups != 1:
        lines.append(f"    group: {layer.groups}")
    lines.extend(["  }", "}"])
    if layer.relu:
        lines.extend(
            [
                "layer {",
                f'  name: "relu_{layer.name}"',
                '  type: "ReLU"',
                f'  bottom: "{layer.name}"',
                f'  top: "{layer.name}"',
                "}",
            ]
        )
    return "\n".join(lines)


def _pool_block(layer: PoolLayer, bottom: str) -> str:
    return "\n".join(
        [
            "layer {",
            f'  name: "{layer.name}"',
            '  type: "Pooling"',
            f'  bottom: "{bottom}"',
            f'  top: "{layer.name}"',
            "  pooling_param {",
            f"    pool: {layer.mode.upper()}",
            f"    kernel_size: {layer.kernel}",
            f"    stride: {layer.stride}",
            f"    pad: {layer.pad}",
            "  }",
            "}",
        ]
    )


def _lrn_block(layer: LRNLayer, bottom: str) -> str:
    return "\n".join(
        [
            "layer {",
            f'  name: "{layer.name}"',
            '  type: "LRN"',
            f'  bottom: "{bottom}"',
            f'  top: "{layer.name}"',
            "  lrn_param {",
            f"    local_size: {layer.local_size}",
            f"    alpha: {layer.alpha}",
            f"    beta: {layer.beta}",
            f"    k: {layer.k}",
            "  }",
            "}",
        ]
    )


def _fc_block(layer: FCLayer, bottom: str) -> str:
    lines = [
        "layer {",
        f'  name: "{layer.name}"',
        '  type: "InnerProduct"',
        f'  bottom: "{bottom}"',
        f'  top: "{layer.name}"',
        "  inner_product_param {",
        f"    num_output: {layer.out_features}",
        "  }",
        "}",
    ]
    if layer.relu:
        lines.extend(
            [
                "layer {",
                f'  name: "relu_{layer.name}"',
                '  type: "ReLU"',
                f'  bottom: "{layer.name}"',
                f'  top: "{layer.name}"',
                "}",
            ]
        )
    return "\n".join(lines)


def _simple_block(layer: Layer, caffe_type: str, bottom: str) -> str:
    return "\n".join(
        [
            "layer {",
            f'  name: "{layer.name}"',
            f'  type: "{caffe_type}"',
            f'  bottom: "{bottom}"',
            f'  top: "{layer.name}"',
            "}",
        ]
    )


def network_to_prototxt(network: Network) -> str:
    """Serialize a :class:`Network` to Caffe prototxt text."""
    spec = network.input_spec
    parts = [
        f'name: "{network.name}"',
        'input: "data"',
        "input_dim: 1",
        f"input_dim: {spec.channels}",
        f"input_dim: {spec.height}",
        f"input_dim: {spec.width}",
    ]
    bottom = "data"
    for info in network:
        layer = info.layer
        if isinstance(layer, ConvLayer):
            parts.append(_conv_block(layer, bottom))
        elif isinstance(layer, PoolLayer):
            parts.append(_pool_block(layer, bottom))
        elif isinstance(layer, LRNLayer):
            parts.append(_lrn_block(layer, bottom))
        elif isinstance(layer, FCLayer):
            parts.append(_fc_block(layer, bottom))
        elif isinstance(layer, ReLULayer):
            parts.append(_simple_block(layer, "ReLU", bottom))
        elif isinstance(layer, SoftmaxLayer):
            parts.append(_simple_block(layer, "Softmax", bottom))
        else:
            raise ParseError(f"cannot serialize layer type {type(layer).__name__}")
        bottom = layer.name
    return "\n".join(parts) + "\n"


def _join_block(layer: Layer, caffe_type: str, bottoms: Tuple[str, ...],
                param: str = "") -> str:
    lines = ["layer {", f'  name: "{layer.name}"', f'  type: "{caffe_type}"']
    lines.extend(f'  bottom: "{bottom}"' for bottom in bottoms)
    lines.append(f'  top: "{layer.name}"')
    if param:
        lines.append(param)
    lines.append("}")
    return "\n".join(lines)


def graph_to_prototxt(graph: Graph) -> str:
    """Serialize a :class:`~repro.nn.graph.Graph` to Caffe prototxt text.

    Blob names equal node names (the graph input keeps the graph's
    ``input_name``), so :func:`graph_from_prototxt` round-trips the
    topology exactly.
    """
    spec = graph.input_spec
    parts = [
        f'name: "{graph.name}"',
        f'input: "{graph.input_name}"',
        "input_dim: 1",
        f"input_dim: {spec.channels}",
        f"input_dim: {spec.height}",
        f"input_dim: {spec.width}",
    ]
    for info in graph:
        layer = info.layer
        bottoms = info.inputs
        if isinstance(layer, ConcatLayer):
            parts.append(
                _join_block(layer, "Concat", bottoms, "  concat_param {\n    axis: 1\n  }")
            )
        elif isinstance(layer, EltwiseLayer):
            operation = "SUM" if layer.operation == "sum" else "MAX"
            parts.append(
                _join_block(
                    layer, "Eltwise", bottoms,
                    f"  eltwise_param {{\n    operation: {operation}\n  }}",
                )
            )
        elif isinstance(layer, ConvLayer):
            parts.append(_conv_block(layer, bottoms[0]))
        elif isinstance(layer, PoolLayer):
            parts.append(_pool_block(layer, bottoms[0]))
        elif isinstance(layer, LRNLayer):
            parts.append(_lrn_block(layer, bottoms[0]))
        elif isinstance(layer, FCLayer):
            parts.append(_fc_block(layer, bottoms[0]))
        elif isinstance(layer, ReLULayer):
            parts.append(_simple_block(layer, "ReLU", bottoms[0]))
        elif isinstance(layer, SoftmaxLayer):
            parts.append(_simple_block(layer, "Softmax", bottoms[0]))
        else:
            raise ParseError(f"cannot serialize layer type {type(layer).__name__}")
    return "\n".join(parts) + "\n"
