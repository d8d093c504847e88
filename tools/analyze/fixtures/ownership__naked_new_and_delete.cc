// Selftest fixture: naked allocations, in every tree the check
// covers. Each `new` and `delete` below must be reported.

namespace fixture
{

struct Node
{
    int value = 0;
};

int
leakThenFree()
{
    Node *node = new Node;
    int *values = new int[4];
    const int sum = node->value + values[0];
    delete node;
    delete[] values;
    return sum;
}

} // namespace fixture
